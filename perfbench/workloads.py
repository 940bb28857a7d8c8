"""The four benchmark workloads: seeded inputs, checked operations, oracles.

Every workload is a closed loop with one client: the runner asks for pass
0, 1, 2, ... and runs each pass's operations one after another.  An
operation is one call into `tangency` (a "trial"); its check runs after
the clock stops and compares the result with an independent route or an
oracle.  The check also returns a digest item.  The items of a pass hash
to the pass digest, which must equal the one recorded in `digests.json`.
Each workload keeps its digest the same for every seed by construction, so
one recorded value covers every seed the benchmark is run with.

Why each workload, and the layer metrics it should move:

- deform-fp: criterion-7 trials over F_101, one per (n, d, k) class each
  pass; exercises forms/jets and the deformation routes
  (deformation.*, forms.* -> run_s, trial_tail_ms).
- count-fermat: the Fermat quintic in P^5 over F_7 and F_11 with nproc
  workers; exercises the finite-field counter and its pool
  (counting.* and counting.scaling_eff -> run_s).
- count-dense: a dense quintic in P^4 over F_7 and F_11 through
  `tangency count-vk --threads nproc`; exercises per-point derivatives of
  ~126 terms (little work per direction) and the CLI
  (counting.*, cli.count_vk_overhead_s -> run_s).
- exact-rings: deformation trials over QQ, Fermat planes in Z[z]/(z^d+1)
  and the symbolic sweep over Z[d]; bypasses F_p and numpy
  (fields.linalg_*, fermat.*, flag.*, schubert.*, enumerative.* -> run_s).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path
from typing import Callable

from tangency import cli, counting, deformation, enumerative, fermat, flag, schubert
from tangency.dpoly import DPoly
from tangency.fields import QQ, PrimeField, row_reduce
from tangency.forms import HyperForm


@dataclass
class Op:
    """One checked operation: `call` is timed, `check` is not.

    check(result) -> (ok, digest item, facts); facts are per-layer counts
    (summed per pass) that only the traced run reports.  Operations marked
    `trial` are the workload's unit of latency (trial_p50_ms, trial_tail_ms).
    """

    group: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    trial: bool = True


def _facts_none(ok, item):
    return ok, item, {}


# ---------------------------------------------------------------------------
# deform-fp


PRIME = 101


def _fp_classes(size: str) -> list[tuple[int, int, int]]:
    ns = (3, 4, 5) if size == "full" else (3,)
    return [(n, d, k) for n in ns for d in (n, n + 1, n + 2) if size == "full" or d == n
            for k in range(1, min(4, d) + 1)]


def _planned_class(trial_seed: int) -> tuple[int, int, int]:
    # the (n, d, k) that contact_experiment(trials=1, seed=trial_seed) draws;
    # the check below fails loudly if the program ever draws differently
    rng = random.Random(random.Random(trial_seed).getrandbits(64))
    n = rng.choice((3, 4, 5))
    d = rng.choice((n, n + 1, n + 2))
    k = rng.choice(tuple(range(1, min(4, d) + 1)))
    return n, d, k


class DeformFp:
    """Every pass runs one criterion-7 trial of each (n, d, k) class.

    The natural mix draws (n, d, k) at random, and one class (n = 5, d = 7)
    costs 100x another (n = 3, d = 3), so a run of ~100 random trials would
    time a different mix on every seed.  Drawing trial seeds until each
    class appears once per pass fixes the mix and keeps every seed's
    coefficients random.
    """

    name = "deform-fp"
    workers = 1
    scaling = None

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.classes = _fp_classes(size)
        self.min_trials = 100 if size == "full" else 1

    def ops(self, index: int) -> list[Op]:
        stream = random.Random(f"deform-fp:{self.seed}:{index}")
        order = list(self.classes)
        stream.shuffle(order)
        out = []
        for cls in order:
            trial_seed = stream.getrandbits(63)
            while _planned_class(trial_seed) != cls:
                trial_seed = stream.getrandbits(63)
            out.append(Op(
                "trial", "trial n={} d={} k={}".format(*cls),
                lambda s=trial_seed: deformation.contact_experiment(trials=1, seed=s, prime=PRIME),
                lambda summary, cls=cls: self._check(summary, cls),
            ))
        return out

    @staticmethod
    def _check(summary, cls):
        r = summary.records[0]
        n, d, k = cls
        ok = ((r.n, r.d, r.k) == cls and r.h0 == r.expected_h0 == 2 * n - k + 1
              and r.matched and r.euler_ok and r.congruence_ok and r.routes_agree)
        item = (r.n, r.d, r.k, r.h0, r.matched, r.euler_ok, r.congruence_ok, r.routes_agree)
        return _facts_none(ok, item)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# finite-field counts


def _pp(m: int, q: int) -> int:
    return (q ** (m + 1) - 1) // (q - 1) if m >= 0 else 0


def _directions(F: HyperForm) -> int:
    """|V_2|, the tangent directions the counter filters: P^(n-2) of them at
    a smooth point of X, P^(n-1) at a singular one."""
    q, n = F.field.p, F.n
    points = counting.hypersurface_points(F).shape[0]
    singular = len(counting.rational_singular_points(F))
    return points * _pp(n - 2, q) + singular * q ** (n - 1)


def _count_facts(F: HyperForm, k: int, count: int, directions: dict) -> dict:
    # filtering happens for k >= 3 only; computed in checks, untimed
    if k < 3:
        return {}
    if F.field.p not in directions:
        directions[F.field.p] = _directions(F)
    return {"counting.directions": directions[F.field.p], "counting.survivors": count}


def _reps_bytes(forms) -> int:
    # the largest projective_reps(n, q) array one hypersurface_points call
    # builds: |P^n(F_q)| rows of n+1 int64 values (computed, not measured)
    return max(_pp(F.n, F.field.p) * (F.n + 1) * 8 for F in forms)


def nproc() -> int:
    import os

    return len(os.sched_getaffinity(0))


class CountFermat:
    """The Fermat quintic with coordinates scaled by seeded units a_i.

    sum a_i^5 x_i^5 is the Fermat quintic after x_i -> a_i x_i, so every
    count, and the digest, is the same for every seed: an exact cross-check
    of the counter against itself for free.
    """

    name = "count-fermat"
    min_trials = 1
    KS = (1, 2, 5)

    def __init__(self, seed: int, size: str):
        n = 5 if size == "full" else 3
        self.workers = nproc()
        self.forms = {}
        rng = random.Random(f"count-fermat:{seed}")
        for q in (7, 11):
            f = PrimeField(q)
            terms = {}
            for i in range(n + 1):
                e = [0] * (n + 1)
                e[i] = 5
                terms[tuple(e)] = pow(rng.randrange(1, q), 5, q)
            self.forms[q] = HyperForm(n, 5, terms, f)
        self.directions = {}
        self.reps_bytes = _reps_bytes(self.forms.values())
        top = self.forms[11]
        self.scaling = (
            "count q=11 k=5",
            lambda: counting.count_vk(top, 5, workers=1),
        )

    def ops(self, index: int) -> list[Op]:
        out = []
        for q, F in self.forms.items():
            for k in self.KS:
                out.append(Op(
                    "count", f"count q={q} k={k}",
                    lambda F=F, k=k: counting.count_vk(F, k, workers=self.workers),
                    lambda rec, F=F, k=k: self._check(F, k, rec),
                    trial=(q, k) == (11, 5),
                ))
        return out

    def _check(self, F, k, rec):
        ok = rec.q == F.field.p and rec.k == k and rec.count >= 0
        if k == 1:
            ok = ok and rec.count == counting.closed_count_k1(F)
        elif k == 2:
            ok = ok and not counting.rational_singular_points(F)
            ok = ok and rec.count == counting.closed_count_k2_smooth(F)
        return (ok, (rec.q, rec.k, rec.n, rec.d, rec.count),
                _count_facts(F, k, rec.count, self.directions))

    def close(self) -> None:
        pass


def _monomials(n: int, d: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(n + 1), d):
        e = [0] * (n + 1)
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


class CountDense:
    """A dense quintic in P^4 counted through `tangency count-vk`.

    It runs with nproc workers: with one, a 1.2 s call absorbs the speed
    flips of a shared core, and the tail over ~11 calls a run spread 0.15 to
    0.23 between runs, against 0.08 with the pool.

    The reference form draws every monomial coefficient from F_q with a
    fixed stream; the seed permutes the coordinates and scales them by
    units.  That changes every coefficient but not the isomorphism class,
    so the counts and the digest are the same for every seed.
    """

    name = "count-dense"
    min_trials = 1
    scaling = None

    def __init__(self, seed: int, size: str, workdir: Path):
        n, qs, self.k = (4, (7, 11), 5) if size == "full" else (3, (7,), 3)
        self.workers = nproc()
        rng = random.Random(f"count-dense:{seed}")
        self.tmp = Path(tempfile.mkdtemp(prefix="count-dense-", dir=workdir))
        self.inputs = []
        for q in qs:
            ref = random.Random(f"count-dense:reference:{q}")
            perm = list(range(n + 1))
            rng.shuffle(perm)
            scale = [rng.randrange(1, q) for _ in range(n + 1)]
            terms = {}
            for e in _monomials(n, 5):
                c = ref.randrange(q)
                for i, ei in enumerate(e):
                    c = c * pow(scale[i], ei, q) % q
                if c:
                    terms[tuple(e[perm[i]] for i in range(n + 1))] = c
            F = HyperForm(n, 5, terms, PrimeField(q))
            path = self.tmp / f"dense-q{q}.hs"
            path.write_text(F.text() + "\n", encoding="utf-8")
            self.inputs.append((q, F, str(path)))
        self.directions = {}
        self.reps_bytes = _reps_bytes(F for _, F, _ in self.inputs)

    def ops(self, index: int) -> list[Op]:
        return [
            Op("cli", f"cli count-vk q={q} k={self.k}",
               lambda q=q, path=path: _cli_json(
                   ["count-vk", "--input", path, "--q", str(q), "--k", str(self.k),
                    "--threads", str(self.workers), "--format", "json"]),
               lambda out, F=F: self._check(F, out),
               trial=q == self.inputs[-1][0])
            for q, F, path in self.inputs
        ]

    def _check(self, F, out):
        code, obj = out
        ok = code == 0 and _schema_valid(obj)
        ok = ok and (obj["q"], obj["k"], obj["n"], obj["d"]) == (F.field.p, self.k, F.n, F.d)
        item = (obj["q"], obj["k"], obj["n"], obj["d"], obj["count"])
        return ok, item, _count_facts(F, self.k, obj["count"], self.directions)

    def close(self) -> None:
        for child in self.tmp.iterdir():
            child.unlink()
        self.tmp.rmdir()


def _cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


_SCHEMA = []


def _schema_valid(obj) -> bool:
    import jsonschema

    if not _SCHEMA:
        path = Path(cli.__file__).parent / "schemas" / "output.schema.json"
        _SCHEMA.append(json.loads(path.read_text(encoding="utf-8")))
    jsonschema.validate(obj, _SCHEMA[0])
    return True


# ---------------------------------------------------------------------------
# exact-rings


BOUNDS = {
    "plane_bound": "35*d^4 - 150*d^3 + 120*d^2",
    "z6_conditional_bound": "225*d^3 - 1370*d^2 + 1800*d",
    "flecnodal_degree": "11*d^2 - 24*d",
    "flex_count": "3*d^2 - 6*d",
}
# lines on a general hypersurface of degree 2n-3 in P^n (OEIS A027363)
FANO = {(3, 3): 27, (4, 5): 2875, (5, 7): 698005, (6, 9): 305093061}


def _qq_trial(n, d, k, seed_text):
    rng = random.Random(seed_text)
    L = deformation.sample_line(n, QQ, rng)
    F = deformation.sample_contact_form(L, d, k, rng)
    direct = deformation.log_sections(F, L, k, use_truncation=False)
    trunc = deformation.log_sections(F, L, k, use_truncation=True)
    cc = deformation.congruence_check(F, L, k)
    return direct, trunc, cc


def _qq_corrupt(n, d, k, seed_text):
    rng = random.Random(seed_text)
    L = deformation.sample_line(n, QQ, rng)
    F = deformation.sample_contact_form(L, d, k, rng)
    return deformation.congruence_check(F, L, k, corrupt=True)


def _span_signature(basis, ncols):
    return [tuple(r) for r in row_reduce(basis, ncols, QQ)[0]]


def _check_qq(out, cls):
    direct, trunc, cc = out
    n, d, k = cls
    ncols = 2 * (n + 1)
    ok = (direct.h0 == trunc.h0 == 2 * n - k + 1
          and direct.euler_in_kernel and trunc.euler_in_kernel and cc.ok
          and _span_signature(direct.basis, ncols) == _span_signature(trunc.basis, ncols))
    return _facts_none(ok, ("qq", n, d, k, direct.h0, trunc.h0, cc.ok))


def _catalan_degree(n):
    s1 = schubert.sigma(n, 1)
    p = s1
    for _ in range(2 * (n - 1) - 1):
        p = p * s1
    return schubert.degree(p)


def _principal_parts_integral(n):
    return flag.integrate(enumerative.principal_parts_class(n, 2 * n - 2))


def _random_flag(rng, n, arity):
    terms = {}
    for _ in range(3):
        key = (rng.randint(0, 2), rng.randint(0, 2) if arity == 2 else 0)
        a = rng.randint(0, n - 1)
        b = rng.randint(0, a)
        elt = schubert.sigma(n, a, b, coeff=rng.randint(-3, 3))
        terms[key] = terms[key] + elt if key in terms else elt
    return flag.FlagElt(n, arity, terms)


def _reduce_laws(pairs):
    out = []
    for x, y in pairs:
        rx = flag.reduce_class(x)
        out.append(flag.reduce_class(rx) == rx)
        out.append(flag.reduce_class(flag.multiply_unreduced(x, y))
                   == flag.reduce_class(flag.multiply_unreduced(rx, flag.reduce_class(y))))
    return out


class ExactRings:
    """Exact arithmetic away from F_p: QQ deformation trials, Fermat planes
    in Z[z]/(z^d + 1) and the symbolic sweep over Z[d].  No numpy, no
    counter."""

    name = "exact-rings"
    workers = 1
    scaling = None

    def __init__(self, seed: int, size: str):
        self.seed = seed
        full = size == "full"
        self.qq_classes = ([(n, d, k) for n, d in ((3, 3), (3, 4), (3, 5), (4, 4), (4, 5))
                            for k in range(1, min(4, d) + 1)]
                           if full else [(3, 3, 1), (3, 3, 2)])
        self.fermat_ds = (4, 5) if full else (2, 3)
        self.sweep_n = 10 if full else 4
        self.law_groups = 4 if full else 1
        self.min_trials = 100 if full else 1

    def ops(self, index: int) -> list[Op]:
        tag = f"exact-rings:{self.seed}:{index}"
        trials = [Op("qq", "qq trial n={} d={} k={}".format(*cls),
                     lambda cls=cls: _qq_trial(*cls, f"{tag}:{cls}"),
                     lambda r, cls=cls: _check_qq(r, cls))
                  for cls in self.qq_classes]
        # everything else is timed in run_s but is not a latency trial
        out = []
        out.append(Op("qq", "qq corrupt control",
                      lambda: _qq_corrupt(3, 3, 2, f"{tag}:corrupt"),
                      lambda r: _facts_none(r.corrupted and not r.ok, ("corrupt", r.ok))))
        for d in self.fermat_ds:
            out.append(Op("fermat", f"fermat planes d={d}",
                          lambda d=d: fermat.fermat_planes(d),
                          lambda planes, d=d: self._check_planes(planes, d)))
        for name, text in BOUNDS.items():
            out.append(Op("symbolic", name,
                          lambda name=name: getattr(enumerative, name)(),
                          lambda poly, name=name, text=text:
                              _facts_none(poly.text("desc") == text, (name, poly.text()))))
        for (n, d), lines in FANO.items():
            out.append(Op("symbolic", f"fano n={n} d={d}",
                          lambda n=n, d=d: enumerative.fano_line_count(n, d),
                          lambda got, n=n, d=d, lines=lines: _facts_none(
                              got == lines == enumerative.fano_line_count(n, d, swap_roots=True),
                              ("fano", n, d, got))))
        for n in range(2, self.sweep_n + 1):
            m = n - 1
            out.append(Op("symbolic", f"catalan n={n}",
                          lambda n=n: _catalan_degree(n),
                          lambda got, n=n, m=m: _facts_none(
                              got == DPoly.const(comb(2 * m, m) // (m + 1)),
                              ("catalan", n, got.text()))))
            out.append(Op("symbolic", f"principal parts n={n}",
                          lambda n=n: _principal_parts_integral(n),
                          lambda got, n=n: _facts_none(
                              n != 2 or got.text() == BOUNDS["flex_count"],
                              ("principal-parts", n, got.text()))))
        rng = random.Random(f"{tag}:laws")
        for g in range(self.law_groups):
            pairs = []
            for _ in range(10):
                n = rng.choice((2, 3, 4))
                arity = rng.choice((1, 2))
                pairs.append((_random_flag(rng, n, arity), _random_flag(rng, n, arity)))
            out.append(Op("symbolic", f"reduce_class laws group {g}",
                          lambda pairs=pairs: _reduce_laws(pairs),
                          lambda got: _facts_none(all(got), ("laws", len(got), all(got)))))
        out.append(Op("symbolic", "replicate-paper",
                      lambda: _cli_json(["replicate-paper", "--format", "json"]),
                      lambda out: _facts_none(
                          out[0] == 0 and _schema_valid(out[1]) and out[1]["allPass"] is True,
                          ("replicate", out[0], out[1]["allPass"]))))
        for op in out:
            op.trial = False
        return trials + out

    @staticmethod
    def _check_planes(planes, d):
        keys = sorted(p.key() for p in planes)
        ok = len(planes) == len(set(keys)) == 15 * d ** 3
        return _facts_none(ok, ("planes", d, len(planes), repr(keys)))

    def close(self) -> None:
        pass


WORKLOADS = ("deform-fp", "count-fermat", "count-dense", "exact-rings")


def build(name: str, seed: int, size: str, workdir: Path):
    if name == "deform-fp":
        return DeformFp(seed, size)
    if name == "count-fermat":
        return CountFermat(seed, size)
    if name == "count-dense":
        return CountDense(seed, size, workdir)
    if name == "exact-rings":
        return ExactRings(seed, size)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
