"""Command-line entry point.

One executable, `tangency`, dispatching to the symbolic Schubert engine,
the enumerative bound pipelines, the deformation lab, and the
finite-field counters.  Exit codes: 0 success, 2 validation, usage or
file error (or a count whose worker process died), 3 internal assertion
failure (a frozen identity or replication target no longer holds).

All JSON output conforms to the shipped schema
(tangency/schemas/output.schema.json).  Polynomials print in canonical
descending-exponent text by default; --order asc gives the ascending
variant for golden-file comparisons.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import log2

from . import schubert
from .counting import CountRecord, count_vk, dimension_slope
from .deformation import congruence_check, contact_order, log_sections, truncate
from .enumerative import BOUND_INFO, fano_line_count
from .fermat import fermat_planes
from .fields import QQ, PrimeField, _quoted, read_int
from .flag import FlagElt, integrate, parse_expression
from .forms import _parse_scalar, parse_form, parse_line_param


# ---------------------------------------------------------------------------
# output and inputs

# decimal digits a printed coefficient may have, below Python's limit of
# 4300 on int-to-str conversion; any int of at most _MAX_BITS bits has at
# most MAX_DIGITS digits, so bit_length decides before any str()
MAX_DIGITS = 4000
_MAX_BITS = int(MAX_DIGITS * log2(10))


def _printable(expr: str, polys) -> None:
    """Refuse to print a result coefficient longer than MAX_DIGITS digits."""
    bits = max((abs(c).bit_length() for p in polys for c in p.coeffs), default=0)
    if bits > _MAX_BITS:
        raise ValueError(f"{_quoted(expr)} has a coefficient of {bits} bits, over the "
                         f"limit of {MAX_DIGITS} decimal digits on printed coefficients")


def _base_only(x: FlagElt):
    if any(e != (0, 0) for e in x.terms):
        raise ValueError("H1/H2 are not allowed in a schubert expression")
    return x.terms.get((0, 0), schubert.SchubertElt.zero(x.n))


def _show(args, doc: dict, text, csv: str | None = None, warnings=()) -> int:
    """Print one result the way --format asks: doc as indented JSON, or
    text (csv under --format csv) after any warnings on stderr."""
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        print(csv if args.format == "csv" else text)
    return 0


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as ex:
        raise ValueError(f"cannot read {path}: {ex}") from ex


def _parsed(parse, path: str, field):
    """parse(the text of the file at path, field); its errors name the file."""
    text = _read(path)
    try:
        return parse(text, field)
    except ValueError as ex:
        raise ValueError(f"{path}: {ex}") from None


def _deform_inputs(args):
    """The field (--q, else QQ), form and line (None without --line) of a
    deform command."""
    field = QQ if args.q is None else PrimeField(args.q)
    form = _parsed(parse_form, args.form, field)
    line = _parsed(parse_line_param, args.line, field) if "line" in args else None
    return field, form, line


# ---------------------------------------------------------------------------
# handlers: each computes one result and hands its JSON document and its
# text to _show

def _cmd_schubert_mult(args) -> int:
    elt = _base_only(parse_expression(args.expr, args.n))
    _printable(args.expr, elt.terms.values())
    text = elt.text()
    return _show(args, {"n": args.n, "schubert": text}, text)


def _cmd_schubert_degree(args) -> int:
    degree = schubert.degree(_base_only(parse_expression(args.expr, args.n)))
    _printable(args.expr, [degree])
    text = degree.text(args.order)
    return _show(args, {"n": args.n, "degree": text}, text)


def _cmd_flag_integrate(args) -> int:
    integral = integrate(parse_expression(args.expr, args.n))
    _printable(args.expr, [integral])
    text = integral.text(args.order)
    return _show(args, {"n": args.n, "integral": text}, text)


def _cmd_bound(args) -> int:
    info = BOUND_INFO[args.sub]
    text = info["func"]().text(args.order)
    doc = {"name": args.sub, "polynomial": text, "validity": info["validity"],
           "pipeline": list(info["pipeline"])}
    return _show(args, doc, text)


def _cmd_fano(args) -> int:
    count = int(fano_line_count(args.n, args.d))
    return _show(args, {"n": args.n, "d": args.d, "lines": count}, count)


def _cmd_deform_contact(args) -> int:
    _, form, line = _deform_inputs(args)
    order = contact_order(form, line)
    return _show(args, {"contactOrder": order}, order)


def _cmd_deform_truncate(args) -> int:
    field, form, _ = _deform_inputs(args)
    result = truncate(form, [_parse_scalar(x, field, "--point") for x in args.point.split(",")],
                      args.k)
    text = result.form.text()
    doc = {"k": args.k, "n": result.form.n, "d": result.form.d, "form": text,
           "basis": [[str(c) for c in row] for row in result.basis]}
    return _show(args, doc, text)


def _cmd_deform_sections(args) -> int:
    _, form, line = _deform_inputs(args)
    space = log_sections(form, line, args.k, use_truncation=(args.route == "truncated"))
    expected = space.expected_h0 is not None
    doc = {
        "contactOrder": space.contact,
        "rawDim": space.raw_dim,
        "h0": space.h0,
        "expected": "2n-k+1" if expected else None,
        "expectedValue": space.expected_h0,
        "match": space.matches,
    }
    if expected:
        verdict = f"expected 2n-k+1 = {space.expected_h0}: " + (
            "match" if space.matches else "MISMATCH")
    else:
        verdict = f"{space.unexpected}: no expected value"
    return _show(args, doc, f"contact order: {space.contact}\n"
                            f"raw solution dimension: {space.raw_dim}\n"
                            f"h0 (Euler quotient): {space.h0}\n{verdict}")


def _cmd_deform_congruence(args) -> int:
    _, form, line = _deform_inputs(args)
    report = congruence_check(form, line, args.k, corrupt=args.corrupt)
    doc = {"k": report.k, "perIndex": list(report.per_index), "ok": report.ok,
           "corrupted": report.corrupted}
    _show(args, doc, f"congruence holds for all indices (k={report.k})" if report.ok
          else f"congruence FAILS: per-index {report.per_index}")
    if not report.ok and not report.corrupted:
        raise AssertionError("exact congruence identity failed on valid input")
    return 0 if report.ok else 3


def _cmd_count_vk(args) -> int:
    # one parse over F_q: a coefficient not in F_q (1/q) is refused by it,
    # and a degree not below q by HyperForm
    form = _parsed(parse_form, args.input, PrimeField(args.q))
    r = count_vk(form, args.k, workers=args.threads)
    doc = r.to_json()
    return _show(args, doc,
                 f"|V_{r.k}| over F_{r.q}: {r.count} (n={r.n}, d={r.d}, {r.elapsed_ms}ms)",
                 csv=f"{','.join(doc)}\n{','.join(map(str, doc.values()))}")


def _cmd_slope(args) -> int:
    try:
        data = json.loads(_read(args.series), parse_int=lambda tok: read_int(tok, args.series))
    except json.JSONDecodeError as ex:
        raise ValueError(f"invalid JSON in {args.series}: {ex}") from ex
    if not isinstance(data, list):
        raise ValueError("series file must hold a JSON array of count records")
    report = dimension_slope([CountRecord.from_json(obj) for obj in data])
    return _show(args, report.to_json(),
                 f"slope: {report.slope:.4f}\nper-step slopes: "
                 + ", ".join(f"{s:.4f}" for s in report.pair_slopes),
                 warnings=report.warnings)


def _cmd_fermat_planes(args) -> int:
    planes = fermat_planes(args.d)
    doc = {"d": args.d, "count": len(planes), "planes": [p.to_json() for p in planes]}
    if not args.emit:
        return _show(args, doc, f"{len(planes)} verified planes (15*d^3 = {15 * args.d ** 3})")
    with open(args.emit, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    return _show(args, doc, f"{len(planes)} verified planes written to {args.emit}")


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
    width = max(len(c["name"]) for c in checks)
    rows = [f"{c['name']:<{width}}  {'pass' if c['pass'] else 'FAIL'}  expected {c['expected']}"
            + ("" if c["pass"] else f"  got {c['got']}") for c in checks]
    rows.append("all checks passed" if all_pass else "REPLICATION FAILED")
    _show(args, {"results": checks, "allPass": all_pass}, "\n".join(rows))
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

    def fmt(p, choices=("text", "json"), order=False):
        p.add_argument("--format", choices=choices, default="text")
        if order:
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
    fmt(p, order=True)
    p.set_defaults(handler=_cmd_schubert_degree)

    flagp = sub.add_parser("flag", help="fiber-square classes with H1, H2")
    fsub = flagp.add_subparsers(dest="sub", required=True)
    p = fsub.add_parser("integrate", help="push forward and take the degree")
    p.add_argument("expr")
    p.add_argument("--n", type=int, required=True)
    fmt(p, order=True)
    p.set_defaults(handler=_cmd_flag_integrate)

    bound = sub.add_parser("bound", help="enumerative degree bounds")
    bsub = bound.add_subparsers(dest="sub", required=True)
    for name in ("planes", "z6"):
        p = bsub.add_parser(name)
        fmt(p, order=True)
        p.set_defaults(handler=_cmd_bound)

    classic = sub.add_parser("classic", help="classical enumerative checks")
    csub = classic.add_subparsers(dest="sub", required=True)
    for name in ("flecnodal", "flex"):
        p = csub.add_parser(name)
        fmt(p, order=True)
        p.set_defaults(handler=_cmd_bound)
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
