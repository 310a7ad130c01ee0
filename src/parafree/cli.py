"""Command-line surface: verify, family, search, classify, poly.

Output is JSON lines on stdout (one self-contained object per line),
diagnostics on stderr.  Exit codes: 0 success with a result, 1 success
with no result (no hits / not a half-relation), 2 invalid input.

Every record is one envelope, built by `Emitter.emit`: {"command",
"inputs", "result", "verified"}.  Every relation a record prints is one
witness record, built by `_witness_json`: tau, word_tau, lhs, rhs, kind
and verified (its `check()`).  The witness's kind is the one statement
of what its words prove; no record restates it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .exact import ExpWord, Mat2, eval_word, format_rational, parse_rational
from .families import family_instance, family_n, instance_witness, validate_options
from .freeness import SearchEffort, classify_tau
from .halfrel import RelationWitness, build_relation, defect, is_half_relation, poly_hr
from .search import (
    DEFAULT_RESULT_LIMIT,
    SearchQuery,
    SignMode,
    check_effort,
    search_half_relations,
)

class InputError(Exception):
    pass


def _parse_seq(text: str) -> tuple[int, ...]:
    # split always yields a part, so an empty text fails int('')
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise InputError(f"malformed integer sequence {text!r}") from None


def _parse_tau(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _parse_k_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise InputError(f"malformed k range {text!r} (expected 'lo..hi')")
    try:
        ks = range(int(lo), int(hi) + 1)
    except ValueError:
        raise InputError(f"malformed k range {text!r}") from None
    if not ks:
        raise InputError(f"empty k range {text!r} (lo > hi)")
    return ks


def _word_json(word: ExpWord) -> dict:
    return {"start": word.start, "exponents": list(word.exponents)}


def _matrix_json(m: Mat2) -> list[list[str]]:
    e11, e12, e21, e22 = m
    return [[format_rational(e11), format_rational(e12)],
            [format_rational(e21), format_rational(e22)]]


def _witness_json(w: RelationWitness) -> dict:
    return {
        "tau": format_rational(w.tau),
        "word_tau": format_rational(w.word_tau),
        "lhs": _word_json(w.lhs),
        "rhs": _word_json(w.rhs),
        "kind": w.kind.value,
        "verified": w.check(),
    }


class Emitter:
    """JSON-lines by default; --table renders aligned key/value rows."""

    def __init__(self, table: bool) -> None:
        self.table = table
        self._rows: list[dict] = []

    def emit(self, command: str, inputs: dict, result: dict, verified: bool) -> None:
        record = {"command": command, "inputs": inputs, "result": result,
                  "verified": verified}
        if self.table:
            self._rows.append(record)
        else:
            print(json.dumps(record, separators=(", ", ": ")))

    def flush(self) -> None:
        if not self.table or not self._rows:
            return
        flat = [_flatten(r) for r in self._rows]
        cols: list[str] = []
        for row in flat:
            for key in row:
                if key not in cols:
                    cols.append(key)
        widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in flat)) for c in cols}
        print("  ".join(c.ljust(widths[c]) for c in cols))
        for row in flat:
            print("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in cols))


def _flatten(record: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, f"{name}."))
        else:
            out[name] = json.dumps(value) if isinstance(value, list) else value
    return out


def cmd_verify(args, emit: Emitter) -> int:
    tau = _parse_tau(args.tau)
    seq = _parse_seq(args.seq)
    d = defect(seq, tau)
    ok = d == 0
    result = {"defect": format_rational(d), "is_half_relation": ok}
    try:
        witness = build_relation(seq, tau)
    except ValueError:
        pass  # not a half-relation, tau = 0 or a zero entry: no witness
    else:
        result["witness"] = _witness_json(witness)
        result["matrix"] = _matrix_json(eval_word(witness.lhs, tau))
    emit.emit("verify", {"tau": format_rational(tau), "seq": list(seq)}, result, ok)
    return 0 if ok else 1


def cmd_family(args, emit: Emitter) -> int:
    name = args.name.lower()
    base = {"a": "A", "b": "B", "d": "D", "e": "E"}.get(name)
    if name == "c":
        base = {"general": "C_general", "even": "C_even", "quad": "C_quad"}[
            args.variant or "general"
        ]
    elif args.variant is not None:
        raise InputError(f"family {base} takes no variant")
    if args.k is not None and args.k_range is not None:
        raise InputError("give one of --k and --k-range, not both")
    # the options are checked before any k, so that a sweep does not skip
    # every k for them, and one the family does not use is an error
    sigma = None if args.sigma is None else _parse_seq(args.sigma)
    try:
        sigma = validate_options(base, sigma, args.x)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if args.k is not None:
        ks: Sequence[int] = [args.k]
    elif args.k_range is not None:
        ks = _parse_k_range(args.k_range)
    else:
        raise InputError("one of --k or --k-range is required")
    emitted = False
    for k in ks:
        try:
            inst = family_instance(base, k, sigma=sigma, x=args.x)
        except ValueError as exc:
            if args.k is not None:
                raise InputError(str(exc)) from None
            continue  # skip excluded k inside an explicit range sweep
        witness = _witness_json(instance_witness(inst))
        result = {
            "tau": format_rational(inst.tau),
            "candidate": list(inst.candidate),
            "exceptional": inst.exceptional,
            "witness": witness,
        }
        if base == "B":
            result["n"] = family_n(inst.sigma, k)
        inputs = {"name": base, "k": k, "sigma": list(sigma) if sigma else None, "x": inst.x}
        emit.emit("family", inputs, result, witness["verified"])
        emitted = True
    return 0 if emitted else 1


_SIGN_MODES = {
    "nonzero": SignMode.NONZERO_ANY,
    "positive": SignMode.ALL_POSITIVE,
    "alternating": SignMode.ALTERNATING,
}


def cmd_search(args, emit: Emitter) -> int:
    tau = _parse_tau(args.tau)
    try:
        query = SearchQuery(tau, args.max_len, args.bound, _SIGN_MODES[args.signs], args.limit)
        # only the input is checked here: a ValueError from the walk is a fault
        check_effort(query.max_len, query.bound, args.workers)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    started = time.monotonic()
    report = search_half_relations(query, workers=args.workers)
    elapsed = time.monotonic() - started
    inputs = {
        "tau": format_rational(tau),
        "max_len": args.max_len,
        "bound": args.bound,
        "signs": args.signs,
        "workers": args.workers,
    }
    checks = [is_half_relation(hit, tau) for hit in report.hits]
    for hit, ok in zip(report.hits, checks):
        emit.emit("search", inputs, {"hit": list(hit)}, ok)
    summary = {
        "hit_count": len(report.hits),
        "exhausted": report.exhausted,
        "elapsed_s": round(elapsed, 3),
    }
    emit.emit("search", inputs, summary, bool(checks) and all(checks))
    return 0 if report.hits else 1


def cmd_classify(args, emit: Emitter) -> int:
    tau = _parse_tau(args.tau)
    try:
        effort = SearchEffort(max_len=args.max_len, bound=args.bound, workers=args.workers)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    cls = classify_tau(tau, effort)
    # each printed witness's record holds its one check(); the summary reads it
    group, semi = (w and _witness_json(w) for w in (cls.group_witness, cls.semigroup_witness))
    checks = [rec["verified"] for rec in (group, semi) if rec]
    result = {
        "group_status": cls.group_status,
        "group_witness": group,
        "semigroup_status": cls.semigroup_status,
        "semigroup_witness": semi,
        "effort": {"max_len": effort.max_len, "bound": effort.bound},
    }
    emit.emit("classify", {"tau": format_rational(tau)}, result, bool(checks) and all(checks))
    return 0


def cmd_poly(args, emit: Emitter) -> int:
    seq = _parse_seq(args.seq)
    poly = poly_hr(seq)
    # the defect has degree <= l//2 + 1 in tau, so agreeing with tau*P(tau)
    # at l//2 + 2 distinct points proves the identity
    points = [Fraction(t) for t in range(1, len(seq) // 2 + 3)]
    result = {"coefficients": list(poly.coeffs), "rendering": poly.render()}
    verified = all(defect(seq, t) == t * poly.evaluate(t) for t in points)
    emit.emit("poly", {"seq": list(seq)}, result, verified)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parafree",
        description="Exact verification and discovery of non-freeness "
        "certificates for pairs of parabolic 2x2 matrices.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--table", action="store_true",
                        help="render aligned tables instead of JSON lines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="check a candidate half-relation")
    p.add_argument("--tau", required=True)
    p.add_argument("--seq", required=True, help="comma-separated exponents")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("family", parents=[common], help="generate family instances")
    p.add_argument("--name", required=True, choices=["a", "b", "c", "d", "e"])
    p.add_argument("--k", type=int)
    p.add_argument("--k-range", dest="k_range", help="inclusive range lo..hi")
    p.add_argument("--sigma", help="two comma-separated values in {1,2,3} (family b)")
    p.add_argument("--variant", choices=["general", "even", "quad"],
                   help="family c variant (default general)")
    p.add_argument("--x", type=int, help="free trailing exponent (families c, e)")
    p.set_defaults(func=cmd_family)

    # the options shared by search and classify, defaulting to the library's effort
    defaults = SearchEffort()
    effort = argparse.ArgumentParser(add_help=False, parents=[common])
    effort.add_argument("--tau", required=True)
    effort.add_argument("--max-len", dest="max_len", type=int, default=defaults.max_len)
    effort.add_argument("--bound", type=int, default=defaults.bound)
    effort.add_argument("--workers", type=int, default=defaults.workers)

    p = sub.add_parser("search", parents=[effort], help="bounded exhaustive half-relation search")
    p.add_argument("--signs", choices=sorted(_SIGN_MODES), default="nonzero")
    p.add_argument("--limit", type=int, default=DEFAULT_RESULT_LIMIT)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("classify", parents=[effort], help="classify a rational tau")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("poly", parents=[common], help="print the factored defect polynomial")
    p.add_argument("--seq", required=True)
    p.set_defaults(func=cmd_poly)

    return parser


def _attach_values(argv: Sequence[str]) -> list[str]:
    """Rewrite "--tau -5/2" as "--tau=-5/2", and likewise for the other
    options whose values may start with "-": argparse reads such a value
    as an option unless it is attached to its own."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--tau", "--seq", "--sigma", "--k-range"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    emit = Emitter(args.table)
    try:
        code = args.func(args, emit)
        emit.flush()
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
