"""Outside-in spans for the traced run.

The traced run rebinds, for its duration only, the names through which one
`tangency` module calls into the layer below (for example the
`pullback_of_partial` that `deformation` imported from `forms`, or the
`substitute` method on `HyperForm`).  Each wrapper opens a span, calls the
original and closes the span, so spans nest exactly as the calls do.
`uninstall` puts every original object back.

A span's self time is its duration minus the durations of its direct
children.  Spans are kept in memory and aggregated by name; `dump` writes
the raw spans out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

_MISSING = object()


@dataclass
class Agg:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0          # whatever the span's `observe` hook measured


@dataclass
class Recorder:
    active: bool = False
    aggs: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)   # (name, start, end, parent index)
    _stack: list = field(default_factory=list)  # [span index, start, child seconds]

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append([len(self.spans) - 1, time.perf_counter(), 0.0])

    def exit(self, count: int = 0) -> float:
        end = time.perf_counter()
        idx, start, child = self._stack.pop()
        dur = end - start
        span = self.spans[idx]
        span[1], span[2] = start, end
        agg = self.aggs.get(span[0])
        if agg is None:
            agg = self.aggs[span[0]] = Agg()
        agg.calls += 1
        agg.total_s += dur
        agg.self_s += dur - child
        agg.count += count
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def tally(self, name: str) -> None:
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = Agg()
        agg.calls += 1

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": names,
            "spans": [[index[n], round(a - t0, 7), round(b - t0, 7), p]
                      for n, a, b, p in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _span_wrapper(rec: Recorder, fn, name, label, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        rec.enter(name if label is None else name + label(*args, **kwargs))
        count = 0
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                count = observe(result)
            return result
        finally:
            rec.exit(count)

    return wrapper


def _tally_wrapper(rec: Recorder, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.active:
            rec.tally(name)
        return fn(*args, **kwargs)

    return wrapper


@dataclass(frozen=True)
class Hook:
    """Rebind `owner.attr` to a span named `span` (or a bare call tally)."""

    owner: object
    attr: str
    span: str
    label: object = None     # (*args, **kwargs) -> name suffix
    observe: object = None   # result -> int added to the span's count
    tally_only: bool = False


class Tracer:
    """Installs hooks, and restores every original on `uninstall`."""

    def __init__(self, hooks):
        self.hooks = list(hooks)
        self.rec = Recorder()
        self._saved: list = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for h in self.hooks:
            original = vars(h.owner).get(h.attr, _MISSING)
            fn = getattr(h.owner, h.attr)
            if h.tally_only:
                wrapped = _tally_wrapper(self.rec, fn, h.span)
            else:
                wrapped = _span_wrapper(self.rec, fn, h.span, h.label, h.observe)
            self._saved.append((h.owner, h.attr, original))
            setattr(h.owner, h.attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def default_hooks() -> list[Hook]:
    """The layer boundaries of `tangency`, as names one module imports from
    the layer below it."""
    from tangency import cli, counting, deformation, dpoly, enumerative, fermat, flag, forms

    def qk(F, k, *args, **kwargs):
        return f"[q={F.field.p},k={k}]"

    def rows(result):
        return int(result.shape[0])

    def flag_terms(result):
        return sum(len(c.terms) for c in result.terms.values())

    hooks = [
        Hook(deformation, "contact_experiment", "deformation.experiment"),
        Hook(deformation, "sample_line", "deformation.sample"),
        Hook(deformation, "sample_contact_form", "deformation.sample"),
        Hook(deformation, "log_sections", "deformation.sections"),
        Hook(deformation, "congruence_check", "deformation.congruence"),
        Hook(deformation, "contact_order", "deformation.contact_order"),
        Hook(deformation, "pullback_of_partial", "forms.partial_pullback"),
        Hook(forms.HyperForm, "substitute", "forms.substitute"),
        Hook(forms.HyperForm, "pullback", "forms.pullback"),
        Hook(counting, "hypersurface_points", "counting.points", observe=rows),
        Hook(counting, "count_vk", "counting.count_vk", label=qk),
        Hook(cli, "main", "cli.main", label=lambda argv, *a, **kw: f"[{argv[0]}]"),
        Hook(cli, "count_vk", "counting.count_vk", label=qk),
        Hook(fermat, "fermat_planes", "fermat.planes",
             label=lambda d, *a, **kw: f"[d={d}]", observe=len),
        Hook(enumerative, "fano_line_count", "enumerative.fano"),
        Hook(flag, "reduce_class", "flag.reduce", observe=flag_terms),
        Hook(flag, "mult", "schubert.mult"),
        Hook(dpoly.DPoly, "__mul__", "dpoly.mul", tally_only=True),
    ]
    for name in ("kernel_basis", "random_kernel_vector", "row_reduce", "mat_vec"):
        hooks.append(Hook(deformation, name, "fields.linalg"))
    for name in ("plane_bound", "z6_conditional_bound", "flecnodal_degree", "flex_count"):
        hooks.append(Hook(enumerative, name, "enumerative.bounds"))
    return hooks
