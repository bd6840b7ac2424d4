"""In-memory spans around calls into mixnorm's layers, recorded from outside.

`Tracer.install` replaces every binding of a layer's public function, in every
mixnorm module namespace where a caller looks it up, with a wrapper that
records one span (name, start, end, parent).  `Tracer.restore` puts every
original binding back.  Nothing under src/ is edited.

A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

import numpy as np

LAYERS = ("grid", "differences", "fourier", "sobolev", "spaces",
          "multipliers", "families", "profiles", "cli")


def _grid_points(args, kwargs) -> int:
    return int(args[0].values.size)


def _transforms(args, kwargs) -> int:
    # spectral_derivative returns its input untouched when every order is 0;
    # any other call is one forward and one inverse FFT
    alpha = args[1] if len(args) > 1 else kwargs["alpha"]
    return int(bool(np.any(np.asarray(alpha) != 0)))


# work recorded with each span of these functions, in the span's `work` column
_WORK = {
    "differences.besov_norm_diff": _grid_points,
    "multipliers.localization_ratio": _grid_points,
    "fourier.spectral_derivative": _transforms,
}


def _mixnorm_modules() -> dict[str, object]:
    return {k: m for k, m in sys.modules.items()
            if (k == "mixnorm" or k.startswith("mixnorm.")) and m is not None}


class Tracer:
    """Span store plus the bindings it has replaced."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.work: list[int] = []
        self.arg_id: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        work, arg_id, stack = self.work, self.arg_id, self._stack
        measure = _WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            work.append(measure(args, kwargs) if measure else 0)
            arg_id.append(id(args[0]) if args else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        wrapper.__perfbench_span__ = name
        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer at each of its bindings."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _mixnorm_modules()
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"mixnorm.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._patched.append((mod, name, obj))

    def restore(self) -> None:
        """Put every replaced binding back and check that none is left wrapped."""
        for mod, name, original in self._patched:
            setattr(mod, name, original)
        self._patched.clear()
        for key, mod in _mixnorm_modules().items():
            for name, obj in vars(mod).items():
                if hasattr(obj, "__perfbench_span__"):
                    raise RuntimeError(f"{key}.{name} is still wrapped")

    def mark(self) -> int:
        """Span count so far; spans from here on belong to the next pass."""
        return len(self.start)

    def summary(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics of the spans with index in [lo, hi)."""
        nid = np.asarray(self.name_id[lo:hi], dtype=np.int64)
        dur = np.asarray(self.end[lo:hi]) - np.asarray(self.start[lo:hi])
        par = np.asarray(self.parent[lo:hi], dtype=np.int64) - lo
        has_parent = par >= 0
        covered = np.bincount(par[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - covered
        nnames = len(self.names)
        self_by_name = np.bincount(nid, weights=self_s, minlength=nnames)
        calls_by_name = np.bincount(nid, minlength=nnames)

        def by(name: str, arr) -> float:
            i = self._ids.get(name)
            return float(arr[i]) if i is not None else 0.0

        out: dict[str, float] = {}
        for layer in LAYERS:
            members = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = float(np.sum(self_by_name[members]))
            out[f"{layer}.calls"] = int(np.sum(calls_by_name[members]))
        for name in ("differences.besov_norm_diff", "differences.besov_norm_integral",
                     "grid.lp_norm_pow", "grid.shift_values", "fourier.besov_norm_fourier",
                     "fourier.peetre_maximal", "fourier.spectral_derivative", "cli.emit"):
            out[f"{name}.self_s"] = by(name, self_by_name)
        for name in ("differences.besov_norm_diff", "grid.lp_norm_pow", "grid.shift_values"):
            out[f"{name}.calls"] = int(by(name, calls_by_name))

        work = np.asarray(self.work[lo:hi], dtype=np.int64)
        arg_id = self.arg_id[lo:hi]
        diff_id = self._ids.get("differences.besov_norm_diff")
        loc_id = self._ids.get("multipliers.localization_ratio")
        is_diff = nid == diff_id
        out["differences.besov_norm_diff.points"] = int(np.sum(work[is_diff]))
        # a piece is a besov_norm_diff call under localization_ratio on another
        # array than the whole-domain input (that call is the numerator)
        pieces = piece_points = 0
        for i in np.flatnonzero(is_diff):
            j = par[i]
            while j >= 0 and nid[j] != loc_id:
                j = par[j]
            if j >= 0 and arg_id[i] != arg_id[j]:
                pieces += 1
                piece_points += int(work[i])
        out["multipliers.pieces"] = pieces
        out["multipliers.piece_points"] = piece_points
        fft_id = self._ids.get("fourier.spectral_derivative")
        out["fourier.spectral_derivative.calls"] = int(np.sum(work[nid == fft_id]))
        return out

    def write(self, path: str) -> None:
        """Write every recorded span as columns of one JSON object."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name_id": self.name_id, "start": self.start,
                       "end": self.end, "parent": self.parent, "work": self.work}, fh)
