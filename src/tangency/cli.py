"""Command-line entry point.

One executable, `tangency`, dispatching to the symbolic Schubert engine,
the enumerative bound pipelines, the deformation lab, and the
finite-field counters.  Exit codes: 0 success, 2 validation, usage or
file error, 3 internal assertion failure (a frozen identity or replication
target no longer holds).

All JSON output conforms to the shipped schema
(tangency/schemas/output.schema.json).  Polynomials print in canonical
descending-exponent text by default; --order asc gives the ascending
variant for golden-file comparisons.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import schubert
from .counting import CountRecord, count_vk, dimension_slope
from .deformation import (
    CONTAINED,
    congruence_check,
    contact_order,
    log_sections,
    truncate,
)
from .enumerative import BOUND_INFO, fano_line_count
from .fermat import fermat_planes
from .fields import QQ, PrimeField
from .flag import FlagElt, hclass, integrate
from .forms import parse_form, parse_line_param


# ---------------------------------------------------------------------------
# expression parsing: integers, d, s[a,b], H1, H2, + - * ^ ( )

_TOKEN = re.compile(
    r"\s*(?:(?P<sig>s\[\s*\d+\s*(?:,\s*\d+\s*)?\])|(?P<h>H[12])"
    r"|(?P<int>\d+)|(?P<var>d)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read expression at: {text[pos:pos + 20]!r}")
        out.append(m.group(0).strip())
        pos = m.end()
    out.append("")  # end marker
    return out


class _ExprParser:
    """Recursive-descent parser producing a FlagElt of arity 2."""

    def __init__(self, text: str, n: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> FlagElt:
        value = self.expr()
        if self.peek() != "":
            raise ValueError(f"unexpected token {self.peek()!r} in expression")
        return value

    def expr(self) -> FlagElt:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> FlagElt:
        value = self.factor()
        while self.peek() == "*":
            self.take()
            value = value * self.factor()
        return value

    def factor(self) -> FlagElt:
        if self.peek() == "-":
            self.take()
            return self.factor().scale(-1)
        value = self.atom()
        while self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ValueError(f"exponent must be an integer, got {tok!r}")
            # square and multiply with power * value^e fixed; once either
            # factor is zero (every class past the dimension is), so is the rest
            power, e = self._scalar(1), int(tok)
            while e and not (power.is_zero() or value.is_zero()):
                if e & 1:
                    power = power * value
                e >>= 1
                if e:
                    value = value * value
            value = FlagElt.zero(self.n, 2) if e else power
        return value

    def _scalar(self, c) -> FlagElt:
        return FlagElt.from_base(schubert.sigma(self.n, 0, 0, coeff=c), arity=2)

    def atom(self) -> FlagElt:
        tok = self.take()
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses in expression")
            return value
        if tok.isdigit():
            return self._scalar(int(tok))
        if tok == "d":
            from .dpoly import DPoly

            return self._scalar(DPoly.var())
        if tok in ("H1", "H2"):
            return hclass(self.n, 2, int(tok[1]))
        if tok.startswith("s["):
            inner = tok[2:-1]
            parts = [int(x) for x in inner.split(",")]
            a, b = (parts[0], 0) if len(parts) == 1 else (parts[0], parts[1])
            return FlagElt.from_base(schubert.sigma(self.n, a, b), arity=2)
        raise ValueError(f"unexpected token {tok!r} in expression")


def parse_expression(text: str, n: int) -> FlagElt:
    return _ExprParser(text, n).parse()


def _base_only(x: FlagElt):
    for (i, j), coeff in x.terms.items():
        if (i, j) != (0, 0) and not coeff.is_zero():
            raise ValueError("H1/H2 are not allowed in a schubert expression")
    base = x.terms.get((0, 0))
    return base if base is not None else schubert.SchubertElt.zero(x.n)


# ---------------------------------------------------------------------------
# output helpers

def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as ex:
        raise ValueError(f"cannot read {path}: {ex}") from ex


def _field_arg(q):
    if q is None:
        return QQ
    return PrimeField(q)


# ---------------------------------------------------------------------------
# handlers

def _cmd_schubert_mult(args) -> int:
    elt = _base_only(parse_expression(args.expr, args.n))
    if args.format == "json":
        _emit({"n": args.n, "schubert": elt.text()})
    else:
        print(elt.text())
    return 0


def _cmd_schubert_degree(args) -> int:
    elt = _base_only(parse_expression(args.expr, args.n))
    value = schubert.degree(elt)
    if args.format == "json":
        _emit({"n": args.n, "degree": value.text(args.order)})
    else:
        print(value.text(args.order))
    return 0


def _cmd_flag_integrate(args) -> int:
    x = parse_expression(args.expr, args.n)
    value = integrate(x)
    if args.format == "json":
        _emit({"n": args.n, "integral": value.text(args.order)})
    else:
        print(value.text(args.order))
    return 0


def _cmd_bound(args, name: str) -> int:
    info = BOUND_INFO[name]
    poly = info["func"]()
    if args.format == "json":
        _emit(
            {
                "name": name,
                "polynomial": poly.text(args.order),
                "validity": info["validity"],
                "pipeline": list(info["pipeline"]),
            }
        )
    else:
        print(poly.text(args.order))
    return 0


def _cmd_fano(args) -> int:
    count = int(fano_line_count(args.n, args.d))
    if args.format == "json":
        _emit({"n": args.n, "d": args.d, "lines": count})
    else:
        print(count)
    return 0


def _parse_point(text: str, field) -> list:
    from .forms import _parse_scalar

    return [_parse_scalar(tok, field) for tok in text.split(",")]


def _cmd_deform_contact(args) -> int:
    field = _field_arg(args.q)
    form = parse_form(_read(args.form), field)
    line = parse_line_param(_read(args.line), field)
    order = contact_order(form, line)
    if args.format == "json":
        _emit({"contactOrder": order})
    else:
        print(order)
    return 0


def _cmd_deform_truncate(args) -> int:
    field = _field_arg(args.q)
    form = parse_form(_read(args.form), field)
    point = _parse_point(args.point, field)
    result = truncate(form, point, args.k)
    if args.format == "json":
        _emit(
            {
                "k": args.k,
                "n": result.form.n,
                "d": result.form.d,
                "form": result.form.text(),
                "basis": [[str(c) for c in row] for row in result.basis],
            }
        )
    else:
        print(result.form.text())
    return 0


def _cmd_deform_sections(args) -> int:
    field = _field_arg(args.q)
    form = parse_form(_read(args.form), field)
    line = parse_line_param(_read(args.line), field)
    space = log_sections(form, line, args.k, use_truncation=(args.route == "truncated"))
    finite = space.contact != CONTAINED
    obj = {
        "contactOrder": space.contact,
        "rawDim": space.raw_dim,
        "h0": space.h0,
        "expected": "2n-k+1" if finite else None,
        "expectedValue": space.expected_h0,
        "match": space.matches,
    }
    if args.format == "json":
        _emit(obj)
    else:
        print(f"contact order: {space.contact}")
        print(f"raw solution dimension: {space.raw_dim}")
        print(f"h0 (Euler quotient): {space.h0}")
        if finite:
            print(f"expected 2n-k+1 = {space.expected_h0}: "
                  f"{'match' if space.matches else 'MISMATCH'}")
        else:
            print("contained line: no expected value")
    return 0


def _cmd_deform_congruence(args) -> int:
    field = _field_arg(args.q)
    form = parse_form(_read(args.form), field)
    line = parse_line_param(_read(args.line), field)
    report = congruence_check(form, line, args.k, corrupt=args.corrupt)
    obj = {
        "k": report.k,
        "perIndex": list(report.per_index),
        "ok": report.ok,
        "corrupted": report.corrupted,
    }
    if args.format == "json":
        _emit(obj)
    elif report.ok:
        print(f"congruence holds for all indices (k={report.k})")
    else:
        print(f"congruence FAILS: per-index {report.per_index}")
    if not report.ok and not report.corrupted:
        raise AssertionError("exact congruence identity failed on valid input")
    return 0 if report.ok else 3


def _cmd_count_vk(args) -> int:
    text = _read(args.input)
    rational = parse_form(text, QQ)
    if args.q <= rational.d:
        raise ValueError(
            "characteristic too small for contact order d "
            f"(q = {args.q}, d = {rational.d})"
        )
    field = PrimeField(args.q)
    terms = {}
    for e, c in rational.terms.items():
        v = field.of(c)
        if not field.is_zero(v):
            terms[e] = v
    from .forms import HyperForm

    form = HyperForm(rational.n, rational.d, terms, field)
    record = count_vk(form, args.k, workers=args.threads)
    if args.format == "json":
        _emit(record.to_json())
    elif args.format == "csv":
        print("q,k,count,n,d,elapsedMs")
        print(f"{record.q},{record.k},{record.count},{record.n},"
              f"{record.d},{record.elapsed_ms}")
    else:
        print(f"|V_{record.k}| over F_{record.q}: {record.count} "
              f"(n={record.n}, d={record.d}, {record.elapsed_ms}ms)")
    return 0


def _cmd_slope(args) -> int:
    try:
        data = json.loads(_read(args.series))
    except json.JSONDecodeError as ex:
        raise ValueError(f"invalid JSON in {args.series}: {ex}") from ex
    if not isinstance(data, list):
        raise ValueError("series file must hold a JSON array of count records")
    records = [CountRecord.from_json(obj) for obj in data]
    report = dimension_slope(records)
    if args.format == "json":
        _emit(report.to_json())
    else:
        for w in report.warnings:
            print(f"warning: {w}", file=sys.stderr)
        print(f"slope: {report.slope:.4f}")
        print("per-step slopes: " + ", ".join(f"{s:.4f}" for s in report.pair_slopes))
    return 0


def _cmd_fermat_planes(args) -> int:
    planes = fermat_planes(args.d)
    doc = {
        "d": args.d,
        "count": len(planes),
        "planes": [p.to_json() for p in planes],
    }
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"{len(planes)} verified planes written to {args.emit}")
    elif args.format == "json":
        _emit(doc)
    else:
        print(f"{len(planes)} verified planes (15*d^3 = {15 * args.d ** 3})")
    return 0


def _cmd_replicate(args) -> int:
    checks = []

    def check(name: str, got, expected) -> None:
        checks.append(
            {"name": name, "expected": str(expected), "got": str(got),
             "pass": got == expected}
        )

    plane = BOUND_INFO["planes"]["func"]()
    check("plane-bound", plane.text("desc"), "35*d^4 - 150*d^3 + 120*d^2")
    check("plane-bound-asc", plane.text("asc"), "120 d^2 - 150 d^3 + 35 d^4")
    z6 = BOUND_INFO["z6"]["func"]()
    check("z6-bound", z6.text("desc"), "225*d^3 - 1370*d^2 + 1800*d")
    check("z6-bound-asc", z6.text("asc"), "1800 d - 1370 d^2 + 225 d^3")
    flec = BOUND_INFO["flecnodal"]["func"]()
    check("flecnodal-degree", flec.text("desc"), "11*d^2 - 24*d")
    check("flecnodal-degree-asc", flec.text("asc"), "-24 d + 11 d^2")
    flex = BOUND_INFO["flex"]["func"]()
    check("flex-count", flex.text("desc"), "3*d^2 - 6*d")

    table = [("s[1]^6", 5), ("s[1]^4*s[1,1]", 2), ("s[1]^2*s[1,1]^2", 1),
             ("s[1,1]^3", 1)]
    for mono, target in table:
        elt = _base_only(parse_expression(f"s[1,1]*{mono}", 5))
        value = schubert.degree(elt)
        check(f"degree-rule {mono}", value.constant_value(), target)

    point = integrate(parse_expression("s[2,2]*s[1,1]*H1*H2", 4))
    check("point-class s[2,2]*s[1,1]*H1*H2", point.constant_value(), 1)

    check("fano-cubic-surface", int(fano_line_count(3, 3)), 27)
    check("fano-quintic-threefold", int(fano_line_count(4, 5)), 2875)

    all_pass = all(c["pass"] for c in checks)
    if args.format == "json":
        _emit({"results": checks, "allPass": all_pass})
    else:
        width = max(len(c["name"]) for c in checks)
        for c in checks:
            mark = "pass" if c["pass"] else "FAIL"
            print(f"{c['name']:<{width}}  {mark}  expected {c['expected']}"
                  + ("" if c["pass"] else f"  got {c['got']}"))
        print("all checks passed" if all_pass else "REPLICATION FAILED")
    if not all_pass:
        raise AssertionError("replication targets no longer reproduce")
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tangency",
        description="Exact Schubert calculus on line Grassmannians, "
                    "enumerative contact bounds, deformation checks, and "
                    "finite-field contact-locus counts.",
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    def fmt(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default="text")

    def order(p):
        p.add_argument("--order", choices=("desc", "asc"), default="desc",
                       help="polynomial term order in text output")

    schub = sub.add_parser("schubert", help="Schubert-class arithmetic on G(1,n)")
    ssub = schub.add_subparsers(dest="sub", required=True)
    p = ssub.add_parser("mult", help="multiply an expression of s[a,b] classes")
    p.add_argument("expr")
    p.add_argument("--n", type=int, required=True)
    fmt(p)
    p.set_defaults(handler=_cmd_schubert_mult)
    p = ssub.add_parser("degree", help="degree of a top-codimension class")
    p.add_argument("expr")
    p.add_argument("--n", type=int, required=True)
    fmt(p)
    order(p)
    p.set_defaults(handler=_cmd_schubert_degree)

    flagp = sub.add_parser("flag", help="fiber-square classes with H1, H2")
    fsub = flagp.add_subparsers(dest="sub", required=True)
    p = fsub.add_parser("integrate", help="push forward and take the degree")
    p.add_argument("expr")
    p.add_argument("--n", type=int, required=True)
    fmt(p)
    order(p)
    p.set_defaults(handler=_cmd_flag_integrate)

    bound = sub.add_parser("bound", help="enumerative degree bounds")
    bsub = bound.add_subparsers(dest="sub", required=True)
    for name in ("planes", "z6"):
        p = bsub.add_parser(name)
        fmt(p)
        order(p)
        p.set_defaults(handler=lambda a, _name=name: _cmd_bound(a, _name))

    classic = sub.add_parser("classic", help="classical enumerative checks")
    csub = classic.add_subparsers(dest="sub", required=True)
    for name in ("flecnodal", "flex"):
        p = csub.add_parser(name)
        fmt(p)
        order(p)
        p.set_defaults(handler=lambda a, _name=name: _cmd_bound(a, _name))
    p = csub.add_parser("fano", help="finite line count on a general hypersurface")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    fmt(p)
    p.set_defaults(handler=_cmd_fano)

    deform = sub.add_parser("deform", help="contact orders and deformation spaces")
    dsub = deform.add_subparsers(dest="sub", required=True)

    def deform_common(p, line=True):
        p.add_argument("--form", required=True, help="hypersurface file (.hs)")
        if line:
            p.add_argument("--line", required=True, help="line file: n+1 rows 'cs ct'")
        p.add_argument("--q", type=int, default=None,
                       help="prime field (default: rationals)")
        fmt(p)

    p = dsub.add_parser("contact", help="s-adic contact order at the marked point")
    deform_common(p)
    p.set_defaults(handler=_cmd_deform_contact)
    p = dsub.add_parser("truncate", help="order-k truncation at a point of the form")
    deform_common(p, line=False)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_deform_truncate)
    p = dsub.add_parser("sections", help="contact-preserving deformation space")
    deform_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--route", choices=("truncated", "direct"), default="truncated",
                   help="solve against the truncated form or the full form")
    p.set_defaults(handler=_cmd_deform_sections)
    p = dsub.add_parser("congruence", help="exact jet congruence self-test")
    deform_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--corrupt", action="store_true",
                   help="fault injection: corrupt the truncation (negative control)")
    p.set_defaults(handler=_cmd_deform_congruence)

    p = sub.add_parser("count-vk", help="exact |V_k(X)(F_q)| pair count")
    p.add_argument("--input", required=True, help="hypersurface file (.hs)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    fmt(p, choices=("text", "json", "csv"))
    p.set_defaults(handler=_cmd_count_vk)

    p = sub.add_parser("slope", help="dimension slope from count records")
    p.add_argument("--series", required=True, help="JSON array of count records")
    fmt(p)
    p.set_defaults(handler=_cmd_slope)

    p = sub.add_parser("fermat-planes", help="the 15 d^3 planes, symbolically verified")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--emit", default=None, help="write the plane list to a JSON file")
    fmt(p)
    p.set_defaults(handler=_cmd_fermat_planes)

    p = sub.add_parser("replicate-paper",
                       help="recompute every frozen target and print a pass/fail table")
    fmt(p)
    p.set_defaults(handler=_cmd_replicate)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        code = ex.code
        return int(code) if code else 0
    try:
        return args.handler(args)
    except (ValueError, ZeroDivisionError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except MemoryError as ex:
        print(f"error: {str(ex) or 'out of memory'}", file=sys.stderr)
        return 2
    except AssertionError as ex:
        print(f"internal assertion failure: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
