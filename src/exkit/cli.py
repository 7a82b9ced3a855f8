"""Command-line surface over the whole library.

Every subcommand emits machine-readable output (json by default, csv or
pretty on request) with a fixed exit-code contract so CI can assert verdicts
without parsing:

    0  success / certificate Holds
    1  certificate Fails
    2  enumeration cap exceeded
    3  certificate Inconclusive at the precision cap
    4  structured input error (bad file, non-exchangeable input, usage
       error, contradictory flags, ...)

Letters on the command line and in files are 1-indexed, matching the worked
examples; the library is 0-indexed internally.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys

from . import serialize
from .conditional import markov_marginal_counterexample, verify_conditional_reduction
from .core import DEFAULT_ENUM_CAP, Alphabet
from .errors import CapExceeded, ExkitError
from .games import (
    classical_value,
    definetti_upper_bound,
    iid_kernel,
    tensor_strategy,
)
from .intervals import DEFAULT_BITS, MAX_BITS
from .mp import beta_bound, cone_constants, lambda_matrix, mp_of_extreme
from .reduction import (
    alpha_analytic,
    alpha_tight,
    verify_flexible_reduction,
)
from .relations import (
    Relation,
    class_size,
    enumerate_types,
    type_of,
)

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_CAP = 2
EXIT_INCONCLUSIVE = 3
EXIT_ERROR = 4

_VERDICT_EXIT = {"holds": EXIT_OK, "fails": EXIT_FAILS, "inconclusive": EXIT_INCONCLUSIVE}


def _add_common(parser: argparse.ArgumentParser, *, bits: bool, cap: bool) -> None:
    """--format, --output, and --precision-bits and --enum-cap where read."""
    parser.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    if bits:
        parser.add_argument("--precision-bits", type=int, default=None)
    if cap:
        parser.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    parser.add_argument("--output", default=None, help="write to a file instead of stdout")


def _add_relation_flags(parser: argparse.ArgumentParser, *, alphabet: bool) -> None:
    """--relation, --ell, --product, and --d and --factors where no file has the alphabet."""
    kinds = ("exchangeable", "markov", "lmarkov", "product")
    parser.add_argument("--relation", choices=kinds, default=None, help="default: exchangeable")
    parser.add_argument("--ell", type=int, default=None, help="lmarkov's order (default: 2)")
    parser.add_argument("--product", default=None, help="product's parts, e.g. markov,lmarkov:3")
    if alphabet:
        parser.add_argument("--d", type=int, default=None, help="alphabet size")
        parser.add_argument("--factors", default=None, help="comma list of factor sizes")


def _part_json(token: str) -> dict:
    """A relation part's JSON: a kind, or ``lmarkov:k`` for order k (default 2)."""
    kind, colon, ell = token.strip().partition(":")
    if kind == "lmarkov":
        return {"kind": kind, "ell": ell or 2}
    if colon:
        raise ExkitError(f"relation part {token!r}: only lmarkov takes an order")
    return {"kind": kind}


def _relation_from_args(args) -> Relation:
    """The relation the flags name, read by ``serialize.relation_from_json``.
    --ell belongs to --relation lmarkov and --product to --relation product;
    given with any other relation they are errors, never ignored."""
    kind = args.relation or "exchangeable"
    if args.ell is not None and kind != "lmarkov":
        raise ExkitError(f"--ell {args.ell} needs --relation lmarkov, not {kind}")
    if args.product is not None and kind != "product":
        raise ExkitError(f"--product needs --relation product, not {kind}")
    if kind == "product":
        parts = (args.product or "exchangeable,exchangeable").split(",")
        obj = {"kind": kind, "parts": [_part_json(p) for p in parts]}
    else:  # --relation lmarkov --ell k is the part lmarkov:k
        obj = _part_json(kind if args.ell is None else f"{kind}:{args.ell}")
    return serialize.relation_from_json(obj)


def _alphabet_from_args(args) -> Alphabet:
    if args.factors:
        parts = args.factors.split(",")
        if not all(f.strip().isdecimal() and int(f) >= 1 for f in parts):
            raise ExkitError(f"--factors must be comma-separated integers >= 1, got {args.factors!r}")
        factors = tuple(map(int, parts))
        size = math.prod(factors)
        if args.d is not None and args.d != size:
            raise ExkitError("--d disagrees with the product of --factors")
        return Alphabet(size, factors)
    if args.d is None:
        raise ExkitError("--d (or --factors) is required")
    if args.d < 1:
        raise ExkitError(f"--d must be >= 1, got {args.d}")
    return Alphabet(args.d)


def _checked_bits(bits: int) -> int:
    """A starting precision from 64 bits up to MAX_BITS, where escalation stops."""
    if bits < 64:
        raise ExkitError("precision must be >= 64 bits")
    if bits > MAX_BITS:
        raise ExkitError(f"precision must be <= {MAX_BITS} bits")
    return bits


def _bits(args) -> int:
    return _checked_bits(DEFAULT_BITS if args.precision_bits is None else args.precision_bits)


def _emit(args, payload: dict, rows: list[dict] | None = None) -> None:
    if args.format == "json":
        text = serialize.dumps(payload)
    elif args.format == "csv":
        flat = rows if rows is not None else [_flatten(payload)]
        buf = io.StringIO()
        if flat:
            writer = csv.DictWriter(buf, fieldnames=list(flat[0].keys()))
            writer.writeheader()
            for row in flat:
                writer.writerow(row)
        text = buf.getvalue().rstrip("\n")
    else:
        text = _pretty(payload)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _flatten(payload: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        elif isinstance(value, list):
            flat[name] = json.dumps(value)
        else:
            flat[name] = value
    return flat


def _pretty(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_pretty(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_pretty(item, indent + 1))
                lines.append(f"{pad}  -")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line)


# -- subcommands ----------------------------------------------------------------


def cmd_classes(args) -> int:
    relation = _relation_from_args(args)
    alphabet = _alphabet_from_args(args)
    if args.filter_word:
        word = serialize.parse_word(args.filter_word, alphabet.size)
        if len(word) != args.n:
            raise ExkitError(f"--filter-word has length {len(word)} but --n is {args.n}")
    index = enumerate_types(relation, alphabet, args.n, args.enum_cap)
    items = index.items
    if args.filter_word:
        descr = type_of(word, relation, alphabet)
        items = tuple((t, s) for t, s in items if t == descr)
    classes = [
        {
            "type": serialize.descriptor_to_json(descr),
            "size": size,
            "alpha_tight": serialize.rational_str(alpha_tight(descr, args.n)),
            "pi": descr.pi_summary(),
        }
        for descr, size in items
    ]
    rows = None
    if args.format == "csv":
        rows = [
            {key: json.dumps(v, sort_keys=True) if isinstance(v, dict) else v
             for key, v in row.items()}
            for row in classes
        ]
    payload = {
        "relation": serialize.relation_to_json(relation),
        "d": alphabet.size,
        "n": args.n,
        "N": index.N,
        "classes": classes,
    }
    _emit(args, payload, rows)
    return EXIT_OK


def cmd_size(args) -> int:
    relation = _relation_from_args(args)
    alphabet = _alphabet_from_args(args)
    word = serialize.parse_word(args.word, alphabet.size)
    descr = type_of(word, relation, alphabet)
    payload = {
        "type": serialize.descriptor_to_json(descr),
        "size": class_size(descr, len(word)),
    }
    best_formula = descr.best_formula_json()
    if best_formula is not None:
        payload["best_formula"] = best_formula
    _emit(args, payload)
    return EXIT_OK


def _reject_flags(args, context: str, consistent: dict | None = None, also: tuple = ()) -> None:
    """Exit 4 naming each of --relation, --ell, --product and --alpha-mode,
    and of the flags in ``also`` (--conditional, --precision-bits), that was
    given where ``context`` fixes it, unless given at the ``consistent``
    value; such flags are errors, never silently dropped."""
    consistent = consistent or {}
    given = {
        "--relation": args.relation,
        "--ell": args.ell,
        "--product": args.product,
        "--alpha-mode": args.alpha_mode,
        # The conditional subcommand sets it; only certify takes it as a flag.
        "--conditional": True if args.command == "certify" and args.conditional else None,
        "--precision-bits": args.precision_bits,
    }
    flags = ("--relation", "--ell", "--product", "--alpha-mode") + also
    conflicts = [
        flag if given[flag] is True else f"{flag} {given[flag]}"
        for flag in flags
        if given[flag] is not None and consistent.get(flag) != given[flag]
    ]
    if conflicts:
        raise ExkitError(f"{', '.join(conflicts)} conflicts with {context}")


def _certificate(dist, relation, bits: int, cap: int, alpha_mode: str):
    """The certificate and its JSON: the conditional reduction when
    ``relation`` is None, else the flexible one, which records its relation."""
    if relation is None:
        cert = verify_conditional_reduction(dist, bits, cap)
        return cert, serialize.conditional_certificate_to_json(cert)
    cert = verify_flexible_reduction(dist, relation, bits, cap=cap, alpha_mode=alpha_mode)
    return cert, serialize.reduction_certificate_to_json(cert)


def cmd_certify(args) -> int:
    with open(args.file) as fh:
        obj = json.load(fh)
    if args.verify:
        return _recheck_certificate(args, obj)
    dist = serialize.distribution_from_json(obj)
    bits = _bits(args)
    alpha_mode = args.alpha_mode or "analytic"
    if args.conditional:
        _reject_flags(
            args,
            "the conditional reduction (exchangeable relation, analytic alpha)",
            {"--relation": "exchangeable", "--alpha-mode": "analytic"},
        )
    relation = None if args.conditional else _relation_from_args(args)
    cert, payload = _certificate(dist, relation, bits, args.enum_cap, alpha_mode)
    payload["input"] = obj
    payload["options"] = {
        "conditional": bool(args.conditional),
        "alpha_mode": alpha_mode,
        "bits": bits,
    }
    _emit(args, payload)
    return _VERDICT_EXIT[cert.verdict]


def _recheck_certificate(args, cert_obj: dict) -> int:
    _reject_flags(
        args,
        "--verify (the certificate's own relation and options are re-checked)",
        also=("--conditional", "--precision-bits"),
    )
    what = "a certificate"
    serialize._object(cert_obj, what)
    options = serialize._object(cert_obj.get("options", {}), "options")
    if args.command == "conditional" and not options.get("conditional"):
        raise ExkitError(
            "conditional --verify conflicts with a flexible certificate "
            "(options.conditional is false); re-check it with certify --verify"
        )
    given = serialize._field(cert_obj, "input", what)
    dist = serialize.distribution_from_json(given)
    bits = _checked_bits(serialize._int_field({"bits": DEFAULT_BITS, **options}, "bits", "options"))
    relation = (
        None
        if options.get("conditional")
        else serialize.relation_from_json(serialize._field(cert_obj, "relation", what))
    )
    cert, fresh = _certificate(
        dist, relation, bits, args.enum_cap, options.get("alpha_mode", "analytic")
    )
    fresh["input"] = given
    fresh["options"] = options
    match = serialize.dumps(fresh) == serialize.dumps(cert_obj)
    _emit(args, {"verified": match, "verdict": cert.verdict})
    return EXIT_OK if match else EXIT_ERROR


def cmd_alpha(args) -> int:
    relation = _relation_from_args(args)
    alphabet = _alphabet_from_args(args)
    bound = alpha_analytic(relation, args.n, alphabet, _bits(args))
    payload = {
        "relation": serialize.relation_to_json(relation),
        "d": alphabet.size,
        "n": args.n,
        "alpha": bound.value.to_json(),
        "alpha_squared": bound.squared.to_json(),
        "degree": bound.degree,
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_mp(args) -> int:
    # One lambda entry per pair of the C(n+d-1, d-1) types; lambda_matrix
    # itself rejects n or d below 1.
    if args.n >= 1 and args.d >= 1:
        entries = math.comb(args.n + args.d - 1, args.d - 1) ** 2
        if entries > args.enum_cap:
            raise CapExceeded(f"{entries} lambda entries exceed enumeration cap {args.enum_cap}")
    lam = lambda_matrix(args.n, args.d)
    payload: dict = {
        "d": args.d,
        "n": args.n,
        "types": [list(t) for t in lam.types],
    }
    if args.type:
        t = tuple(int(x) for x in args.type.split(","))
        col = lam.index(t)
        mp = mp_of_extreme(t, args.n, args.enum_cap)
        payload["type"] = list(t)
        payload["lambda_row"] = [serialize.rational_str(lam.entries[i][col]) for i in range(len(lam.types))]
        payload["mp_distribution"] = serialize.distribution_to_json(mp)
        cone = cone_constants(t, args.n)
        payload["cone"] = {
            "alpha_tight": serialize.rational_str(cone["alpha_tight"]),
            "beta_self": serialize.rational_str(cone["beta_self"]),
            "smaller": cone["smaller"],
        }
    else:
        payload["lambda"] = [
            [serialize.rational_str(v) for v in row] for row in lam.entries
        ]
    _emit(args, payload)
    return EXIT_OK


def cmd_beta(args) -> int:
    bound = beta_bound(args.n, args.d, _bits(args))
    payload = {
        "d": args.d,
        "n": args.n,
        "beta_exact": serialize.rational_str(bound.beta_exact),
        "argmax_type": list(bound.argmax_type),
        "beta_analytic": bound.beta_analytic.to_json() if bound.beta_analytic else None,
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    report = markov_marginal_counterexample()
    payload = {
        "joint_sequence": [[a + 1, x + 1] for a, x in report.joint_sequence],
        "x_marginal_support": serialize.word_str(report.x_marginal_support, 2),
        "x_class_members": [serialize.word_str(w, 2) for w in report.x_class_members],
        "marginal_masses": [serialize.rational_str(m) for m in report.marginal_masses],
        "marginal_is_markov_exchangeable": report.marginal_is_markov_exchangeable,
        "exchangeable_analogue_holds": report.exchangeable_analogue_holds,
    }
    _emit(args, payload)
    return EXIT_OK


def _check_pair_table(table: dict, sizes: tuple, field: str, row: str) -> None:
    """Exit 4 naming a key of a kernel's rows or a strategy's slices, or of
    one of its rows, outside ``sizes``: the game's X, Y and then X, Y for a
    kernel's next pair or A, B for a strategy's outputs."""
    for (x, y), cells in table.items():
        key = f"{x + 1},{y + 1}"
        serialize._within((x, y), sizes[:2], f"{field} key", key)
        for i, j in cells:
            serialize._within((i, j), sizes[2:], f"{row} {key} key", f"{i + 1},{j + 1}")


def cmd_game(args) -> int:
    if args.kernel is not None and args.mode == "parallel":
        raise ExkitError("--kernel conflicts with --mode parallel")
    with open(args.file) as fh:
        game = serialize.game_from_json(json.load(fh))
    bits = _bits(args)
    n = args.n
    value, witness = classical_value(game, args.enum_cap)
    payload: dict = {"classical_value": serialize.rational_str(value), "n": n, "mode": args.mode}

    kernel = None
    if args.mode == "sequential":
        if args.kernel:
            with open(args.kernel) as fh:
                kernel = serialize.kernel_from_json(json.load(fh))
            _check_pair_table(kernel.rows, tuple(map(len, game.axes[:2])) * 2, "rows", "row")
        else:
            kernel = iid_kernel(game)

    if args.strategy:
        with open(args.strategy) as fh:
            base = serialize.strategy_from_json(json.load(fh))
        _check_pair_table(base.table, tuple(map(len, game.axes)), "slices", "slice")
        for x, y in itertools.product(game.inputs_x, game.inputs_y):
            if (x, y) not in base.table:
                raise ExkitError(f"a strategy has no slice for input pair '{x + 1},{y + 1}'")
    else:
        base = witness
    # A tensor power's joint weight is already constant on the classes.
    strategy = tensor_strategy(game, base, n, args.enum_cap)
    report = definetti_upper_bound(
        game, n, strategy, mode=args.mode, kernel=kernel, bits=bits, cap=args.enum_cap
    )
    try:
        repeated_value, _ = classical_value(report.repeated, args.enum_cap)
        payload["repeated_value"] = serialize.rational_str(repeated_value)
    except CapExceeded:
        payload["repeated_value"] = None
    payload["strategy_winning"] = serialize.rational_str(report.winning)
    payload["bound"] = report.bound.to_json()
    payload["bound_ge_winning"] = bool(report.bound_ge_winning)
    payload["alpha_certified"] = serialize.rational_str(report.alpha_certified)
    analytic = report.prefactor_analytic
    payload["prefactor_analytic"] = None if analytic is None else analytic.to_json()
    payload["degree"] = report.degree
    payload["per_pi"] = [
        {
            "type": serialize.descriptor_to_json(row.descriptor),
            "predicate_weight": serialize.rational_str(row.predicate_weight),
            "fidelity_sq": row.fidelity_sq.to_json(),
        }
        for row in report.rows
    ]
    _emit(args, payload)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 4, not argparse's 2, which the
    contract gives to an exceeded enumeration cap.  Subparsers inherit it."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="exkit",
        description="Exact de Finetti reductions for partially exchangeable distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="enumerate nonempty classes with sizes")
    _add_relation_flags(p, alphabet=True)
    _add_common(p, bits=False, cap=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filter-word", default=None)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("size", help="class size of one word, with BEST terms")
    _add_relation_flags(p, alphabet=True)
    _add_common(p, bits=False, cap=False)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_size)

    p = sub.add_parser("certify", help="flexible reduction certificate for a distribution file")
    _add_relation_flags(p, alphabet=False)
    _add_common(p, bits=True, cap=True)
    p.add_argument("file")
    p.add_argument("--conditional", action="store_true")
    p.add_argument(
        "--alpha-mode", choices=("analytic", "tight"), default=None, help="default: analytic"
    )
    p.add_argument("--verify", action="store_true", help="re-check an emitted certificate")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("alpha", help="analytic pre-factor enclosure")
    _add_relation_flags(p, alphabet=True)
    _add_common(p, bits=True, cap=False)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("mp", help="measure-and-prepare lambda matrix / decomposition")
    _add_common(p, bits=False, cap=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--type", default=None, help="comma list of letter counts")
    p.set_defaults(func=cmd_mp)

    p = sub.add_parser("beta", help="measure-and-prepare pre-factor beta(n)")
    _add_common(p, bits=True, cap=False)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_beta)

    # The relation is fixed; its flags are taken only to be rejected by name.
    p = sub.add_parser("conditional", help="universal conditional reduction certificate")
    _add_relation_flags(p, alphabet=False)
    _add_common(p, bits=True, cap=True)
    p.add_argument("file")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_certify, conditional=True, alpha_mode=None)

    p = sub.add_parser("counterexample", help="Markov marginal counterexample report")
    _add_common(p, bits=False, cap=False)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("game", help="values and reduction bound for a repeated game")
    _add_common(p, bits=True, cap=True)
    p.add_argument("file")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--mode", choices=("parallel", "sequential"), default="parallel")
    p.add_argument("--kernel", default=None)
    p.add_argument("--strategy", default=None)
    p.set_defaults(func=cmd_game)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as err:
        print(serialize.dumps({"error": "cap_exceeded", "detail": str(err)}), file=sys.stderr)
        return EXIT_CAP
    except ExkitError as err:
        payload = {"error": type(err).__name__, "detail": str(err)}
        witness = getattr(err, "witness", None)
        if witness is not None:
            payload["witness"] = [list(w) for w in witness]
        print(serialize.dumps(payload), file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as err:
        print(
            serialize.dumps({"error": type(err).__name__, "detail": str(err)}),
            file=sys.stderr,
        )
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
