"""In-process tracer for one levylab CLI run, installed from outside the package.

The tracer wraps the public entry points listed in ``ENTRY_POINTS`` and the
numerical kernels in ``KERNELS`` at every place they are bound: the defining
module, every ``levylab`` module that imported the name, and modules that
``levylab`` imports lazily while the run is under way (an import hook wraps
them as they load).  Each call becomes a span ``(id, parent, name, start,
end, counters)`` kept in memory; ``uninstall`` puts every original binding
back.  Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import sys
import time
from pathlib import Path

import numpy as np


def _file_bytes(directory, name: str, suffix: str) -> int:
    path = Path(directory) / f"{name}{suffix}"
    return path.stat().st_size if path.exists() else 0


def _bytes_csv(a):
    return {"bytes": _file_bytes(a["self"].dir, a["name"], ".csv")}


def _bytes_json(a):
    return {"bytes": _file_bytes(a["self"].dir, a["name"], ".json")}


def _bytes_record(a):
    return {"bytes": _file_bytes(a["self"].dir, "record", ".json")}


def _increments(a):
    return {"increments": int(a["n_paths"])}


def _paths(a):
    return {"paths": int(a["mc"].n_paths)}


def _weyl_path_steps(a):
    return {"path_steps": int(a["mc"].n_paths) * int(a["n_steps"])}


def _diffusion_path_steps(a):
    return {"path_steps": int(a["mc"].n_paths) * int(round(a["t"] / a["dt"]))}


#: module -> {qualified name: counter function or None}.  A counter function
#: receives the bound call arguments by parameter name and runs after the call.
ENTRY_POINTS = {
    "levylab.cli": {"main": None},
    "levylab.config": {"parse_config": None},
    "levylab.runner": {
        "run": None,
        "_Workspace.write_csv": _bytes_csv,
        "_Workspace.write_json": _bytes_json,
        "_Workspace.write_record": _bytes_record,
    },
    "levylab.rng": {"stream": None},
    "levylab.levy": {"sample_ensemble": _increments},
    "levylab.semigroup": {"mc_heisenberg_expectation": _paths},
    "levylab.galilean": {
        "mc_vs_closed_form": None,
        "mc_weyl_expectation": _weyl_path_steps,
        "evolve_weyl_closed_form": None,
        "scheme_expected_weyl": None,
    },
    "levylab.feller": {
        "simulate_killed_diffusion": _diffusion_path_steps,
        "simulate_reflecting_diffusion": _diffusion_path_steps,
    },
    "levylab.generators": {
        "random_standard_generator": None,
        "is_conditionally_cp": None,
        "is_completely_positive": None,
        "exact_evolve": None,
        "choi_matrix": None,
    },
}

#: Kernel spans: complex exponentials (phase generation) and FFTs.  Both numpy
#: and scipy FFT modules are wrapped because ``galilean`` imports ``scipy.fft``
#: inside a function and looks ``fft``/``ifft`` up on the module at call time.
KERNELS = {
    "numpy": ("exp",),
    "numpy.fft": ("fft", "ifft"),
    "scipy.fft": ("fft", "ifft"),
}


class Tracer:
    """Span recorder with reversible wrapping; one instance per traced run."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        self._hook: _WrapOnImport | None = None

    # -- spans ------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, count=None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            self._stack.pop()
            counters = count(args, kwargs) if count is not None else None
            self.spans.append((sid, parent, name, start, end, counters))
        return result

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller (the package import)."""
        self.spans.append((self._next_id, None, name, start, end, None))
        self._next_id += 1

    def records(self) -> list[dict]:
        return [
            {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4],
             "counters": s[5], "run": self.run_id}
            for s in sorted(self.spans)
        ]

    # -- wrapping ---------------------------------------------------------

    def _wrap_function(self, name: str, fn, counter):
        tracer = self
        bind = None
        if counter is not None:
            sig = inspect.signature(fn)

            def bind(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return counter(bound.arguments)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, bind)

        return wrapper

    def _wrap_kernel(self, name: str, fn):
        tracer = self
        if name == "numpy.exp":
            def exp(x, *args, **kwargs):
                if not np.iscomplexobj(x):
                    return fn(x, *args, **kwargs)
                return tracer.call("phase", fn, (x,) + args, kwargs, lambda a, k: {"elems": int(np.size(x))})
            return exp

        def fft(x, *args, **kwargs):
            return tracer.call(name, fn, (x,) + args, kwargs, lambda a, k: {"points": int(np.size(x))})

        return functools.wraps(fn)(fft)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_module(self, module) -> None:
        for qualname, counter in ENTRY_POINTS.get(module.__name__, {}).items():
            *cls_path, attr = qualname.split(".")
            owner = module
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or id(original) in self._wrappers:
                continue
            wrapper = self._wrap_function(f"{module.__name__}.{qualname}", original, counter)
            self._wrappers[id(original)] = (original, wrapper)
            self._set(owner, attr, wrapper)
        self._rebind()

    def _rebind(self) -> None:
        """Point every levylab binding of a wrapped original at its wrapper.

        A module loaded after ``install`` may already hold a wrapper it
        imported by name; that binding is recorded too, so that ``uninstall``
        puts the original there.
        """
        originals = {id(w): orig for orig, w in self._wrappers.values()}
        patched = {(id(o), a) for o, a, _ in self._patches}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "levylab" or name.startswith("levylab.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in self._wrappers:
                    self._set(module, attr, self._wrappers[id(value)][1])
                elif id(value) in originals and (id(module), attr) not in patched:
                    self._patches.append((module, attr, originals[id(value)]))

    def install(self) -> None:
        import numpy.fft
        import scipy.fft

        for modname, attrs in KERNELS.items():
            module = sys.modules[modname]
            for attr in attrs:
                original = getattr(module, attr)
                wrapper = self._wrap_kernel(f"{modname}.{attr}", original)
                self._wrappers[id(original)] = (original, wrapper)
                self._set(module, attr, wrapper)
        for name in list(sys.modules):
            if name in ENTRY_POINTS:
                self._wrap_module(sys.modules[name])
        self._hook = _WrapOnImport(self._wrap_module)
        sys.meta_path.insert(0, self._hook)

    def uninstall(self) -> None:
        """Restore every binding this tracer replaced, newest first, and check it."""
        if self._hook is not None:
            sys.meta_path.remove(self._hook)
            self._hook = None
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        wrappers = {id(w) for _, w in self._wrappers.values()}
        self._wrappers.clear()
        leftover = [f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in patches if id(o.__dict__[a]) in wrappers]
        if leftover:
            raise RuntimeError(f"tracer left wrappers in place: {leftover}")


class _WrapOnImport(importlib.abc.MetaPathFinder):
    """Wrap entry points of levylab modules that load after ``install``."""

    def __init__(self, on_load):
        self.on_load = on_load

    def find_spec(self, fullname, path, target=None):
        if fullname not in ENTRY_POINTS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or not hasattr(spec.loader, "exec_module"):
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            try:
                exec_module(module)
            finally:
                del spec.loader.exec_module
            self.on_load(module)

        spec.loader.exec_module = exec_and_wrap
        return spec


def bindings_snapshot() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded levylab and kernel module, by identity.

    The self-check compares snapshots taken before ``install`` and after
    ``uninstall``; they must agree object for object.
    """
    names = [n for n in sys.modules if n == "levylab" or n.startswith("levylab.")] + list(KERNELS)
    snap = {}
    for name in names:
        module = sys.modules.get(name)
        if module is None:
            continue
        for attr, value in vars(module).items():
            snap[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[(f"{name}.{attr}", cattr)] = cvalue
    return snap
