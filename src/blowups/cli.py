"""Command-line interface.

Every subcommand reads JSON documents (a file path or ``-`` for stdin),
and its handler returns one document, which ``main`` writes to stdout as
canonical JSON, or that document's canonical JSON text, which ``main``
writes as it is: the same inputs always produce the same bytes.  Exit
codes: 0 success; 1 only when ``--exit-status`` is given and the decision
it reads (``equivalent``, ``compatible`` or ``ok``) is printed ``false``;
2 malformed input or failed precondition; 3 a search, enumeration or
output limit, or a refused allocation.  ``_ERRORS`` maps each error to its
code in ``{"error": {"code": ..., "message": ...}}`` and its exit code.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable

from . import io
from .contraction import DEFAULT_ORDER_LIMIT, contract, final_set, recover_all_orders, recover_sequence
from .equivalence import (
    canonical_form,
    automorphism_orbits,
    forest_isomorphic,
    marked_forest_equivalent,
    marked_tensor_equivalent,
    partition_compatible_morphism,
    partition_compatible_sequence,
    tensor_equivalent,
)
from .errors import NotContractibleError, SchemaError, SearchLimitError
from .forest import random_forest, validate_forest
from .tensor import diagonal, quotient_tensor, tensor_from_forest

__all__ = ["main", "build_parser"]

# (exception types, error code, exit status): the first row that matches names the error.
_ERRORS = (
    (SchemaError, "schema", 2),
    (NotContractibleError, "not-contractible", 2),
    (SearchLimitError, "limit", 3),
    (MemoryError, "limit", 3),
    ((ValueError, IndexError), "invalid-input", 2),
    (OSError, "io", 2),
)


def _load_forest(path: str):
    forest = io.forest_from_dict(io.load_document(path))
    report = validate_forest(forest)
    if not report.ok:
        detail = "; ".join(v.message for v in report.violations)
        raise ValueError(f"{path}: invalid forest: {detail}")
    return forest


def _load_tensor(path: str):
    return io.tensor_from_dict(io.load_document(path))


def _load(kind: str, path: str):
    return _load_forest(path) if kind == "forest" else _load_tensor(path)


def _read_once(*paths: str) -> None:
    """Refuse a call that names stdin, ``-``, for more than one document, before any is read."""
    if paths.count("-") > 1:
        raise ValueError("stdin can be read only once, so at most one document may be -")


def _load_partition(path: str):
    return io.partition_from_dict(io.load_document(path))


def _tensor_text(tensor) -> str:
    return io._tensor_json(tensor.dimension, tensor.size, [(*key, value) for key, value in tensor.entries.items()])


def _cmd_tensor(args) -> str:
    return _tensor_text(tensor_from_forest(_load_forest(args.forest)))


def _cmd_finals(args) -> dict:
    return {"finals": sorted(final_set(_load_tensor(args.tensor)))}


def _cmd_contract(args) -> str:
    contracted, _ = contract(_load_tensor(args.tensor), args.index)
    return _tensor_text(contracted)


def _cmd_recover(args) -> str:
    forest, trace = recover_sequence(_load_tensor(args.tensor))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.writelines([io._trace_json(trace), "\n"])
    return io._forest_json(forest)


def _cmd_recover_all(args) -> str:
    return io._orders_json(recover_all_orders(_load_tensor(args.tensor), args.limit))


def _cmd_equiv(args) -> dict:
    files = args.files
    if len(files) not in (2, 4):
        raise ValueError("equiv expects two inputs, or two inputs plus two partitions")
    _read_once(*files)
    forests = args.kind == "forest"
    a, b = (_load(args.kind, path) for path in files[:2])
    if len(files) == 2:
        witness = (forest_isomorphic if forests else tensor_equivalent)(a, b)
    else:
        marked = marked_forest_equivalent if forests else marked_tensor_equivalent
        witness = marked(a, _load_partition(files[2]), b, _load_partition(files[3]))
    return io.witness_to_dict(witness)


def _cmd_canon(args) -> str:
    """The canonical JSON of ``{"canonical", "hash", "kind", "permutation"}``, written around the leaf's bytes."""
    form = canonical_form(_load(args.kind, args.input))
    permutation = ",".join(map(str, form.relabeling))
    return '{"canonical":%s,"hash":"%s","kind":"%s","permutation":[%s]}' % (
        form.data.decode(), form.hash, args.kind, permutation
    )


def _cmd_orbits(args) -> str:
    orbits = automorphism_orbits(_load(args.kind, args.input))
    return '{"orbits":[%s]}' % ",".join(["[%s]" % ",".join(map(str, orbit)) for orbit in orbits])


def _cmd_compat(args) -> dict:
    _read_once(args.input, args.partition)
    partition = _load_partition(args.partition)
    compatible_with = partition_compatible_sequence if args.kind == "forest" else partition_compatible_morphism
    return {"compatible": compatible_with(_load(args.kind, args.input), partition)}


def _cmd_quotient(args) -> str:
    _read_once(args.tensor, args.partition)
    quotient = quotient_tensor(_load_tensor(args.tensor), _load_partition(args.partition))
    return _tensor_text(quotient)


def _cmd_diag(args) -> dict:
    return {"diagonal": diagonal(_load_tensor(args.tensor))}


def _cmd_validate(args) -> dict:
    forest = io.forest_from_dict(io.load_document(args.forest))
    report = validate_forest(forest, strict=args.strict)
    return io.report_to_dict(report)


def _cmd_gen(args) -> dict:
    forest = random_forest(args.seed, args.dim, args.points, args.max_degree)
    return io.forest_to_dict(forest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowups",
        description="Intersection tensors of blow-up sequences: compute, contract, recover, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Callable, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, decision=None)
        return p

    p = add("tensor", _cmd_tensor, "intersection tensor of a forest")
    p.add_argument("forest")

    p = add("finals", _cmd_finals, "indices of final components")
    p.add_argument("tensor")

    p = add("contract", _cmd_contract, "blow down one final component")
    p.add_argument("tensor")
    p.add_argument("index", type=int)

    p = add("recover", _cmd_recover, "recover the blow-up sequence of a tensor")
    p.add_argument("tensor")
    p.add_argument("--trace", metavar="PATH", help="also write the contraction trace to PATH")

    p = add("recover-all", _cmd_recover_all, "recover along every contraction order")
    p.add_argument("tensor")
    p.add_argument("--limit", type=int, default=DEFAULT_ORDER_LIMIT, metavar="N")

    p = add("equiv", _cmd_equiv, "decide equivalence (optionally marked)")
    p.add_argument("--kind", choices=("forest", "tensor"), required=True)
    p.add_argument("files", nargs="+", metavar="FILE")

    p = add("canon", _cmd_canon, "canonical form and hash")
    p.add_argument("--kind", choices=("forest", "tensor"), required=True)
    p.add_argument("input")

    p = add("orbits", _cmd_orbits, "automorphism orbits")
    p.add_argument("--kind", choices=("forest", "tensor"), default="tensor")
    p.add_argument("input")

    p = add("compat", _cmd_compat, "is a partition compatible?")
    p.add_argument("--kind", choices=("forest", "tensor"), required=True)
    p.add_argument("input")
    p.add_argument("partition")

    p = add("quotient", _cmd_quotient, "form induced on the blocks of a partition")
    p.add_argument("tensor")
    p.add_argument("partition")

    p = add("diag", _cmd_diag, "diagonal of a tensor")
    p.add_argument("tensor")

    p = add("validate", _cmd_validate, "validate a forest")
    p.add_argument("forest")
    p.add_argument("--strict", action="store_true")

    p = add("gen", _cmd_gen, "generate a pseudo-random forest")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=3)

    # ``--exit-status`` and the printed field it reads; declared last, so usage and help keep their order.
    for name, field in (("equiv", "equivalent"), ("compat", "compatible"), ("validate", "ok")):
        sub.choices[name].add_argument("--exit-status", action="store_const", const=field, dest="decision")
    return parser


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser ``main`` reuses and its sub-parser for each command, built at its first call.

    Safe to share: each parse fills a fresh namespace, no option has a
    mutable default, and each handler looks up the library names it calls
    when it runs.
    """
    parser = build_parser()
    return parser, next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand, write its one line to stdout and return the exit code.

    A handler returns its document, or canonical JSON text, as
    ``recover-all`` does for its long lists of orders, ``canon`` around
    its canonical leaf's bytes, ``recover`` and ``orbits`` from templates,
    and each command that prints a tensor from its entries.  ``main`` encodes a document with
    :func:`io.canonical_json` and writes text as it is.
    Either way, an error raised by the handler comes before any output
    and is written as ``{"error": ...}`` instead.

    A call that names a command is parsed by that command's sub-parser
    alone, which is half the cost of the full parser.  The full parser
    runs only when that fails to name a command or leaves an argument
    over, and prints the usage, help or error text it always has.
    """
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    args, rest = command.parse_known_args(argv[1:]) if command else (None, None)
    if args is None or rest:
        args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
    except Exception as exc:
        for types, code, status in _ERRORS:
            if isinstance(exc, types):
                break
        else:
            raise
        payload = {"error": {"code": code, "message": str(exc) or type(exc).__name__}}
    else:
        status = 1 if args.decision and payload[args.decision] is False else 0
    sys.stdout.write((payload if isinstance(payload, str) else io.canonical_json(payload)) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
