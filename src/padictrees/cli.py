"""Command line surface: enumeration, expansion, series, comparison.

Exit codes: 0 success (or isomorphic / check passed), 1 checked and false,
2 usage or input error, 3 enumeration finished with Unknown lift statuses.
All JSON payloads carry a "format" field and re-parse to equal values.
Each command imports the modules it runs when it runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, PadicTreesError, _is_prime

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI parser.  A command line builds only its own command's parser:
    given the name, a parser whose hidden first positional "command" takes
    that name alone, so its help, usage errors and parse results read as
    the full parser's.  With no name, the full parser, whose subparsers
    dispatch on the command."""
    if command is None:
        ap = _Parser(prog="padictrees", description=__doc__)
        sub = ap.add_subparsers(dest="command", required=True)

        def add(name, help):
            return sub.add_parser(name, help=help)
    else:
        ap = _Parser(prog=f"padictrees {command}")
        ap.add_argument("command", choices=[command], help=argparse.SUPPRESS)

        def add(name, help):
            return ap if name == command else None

    def out(sp, *formats):
        sp.add_argument("--out", help="output path (default: stdout)")
        if formats:
            sp.add_argument("--format", choices=formats, default="json",
                            help="output rendering")

    def depth(sp):
        sp.add_argument("--depth", type=int, required=True, help="truncation depth")

    def ints(text):  # --param: comma-separated integers, none for ''
        return tuple(int(s) for s in text.split(",") if s.strip() != "")

    def tree_out(sp):
        # the commands that build a tree, and only they, take a node budget
        out(sp, "json", "dot", "text")
        sp.add_argument("--node-budget", type=int, default=10**7)
        depth(sp)

    if sp := add("enum", "tree of lifting residue classes"):
        sp.add_argument("system", help="polynomial system JSON")
        sp.add_argument("--delta", type=int, default=None,
                        help="certification window (default: depth)")
        sp.add_argument("--cert-budget", type=int, default=4000,
                        help="per-class certification search budget")
        tree_out(sp)
    if sp := add("naive", "tree of residue-class solutions"):
        sp.add_argument("system")
        tree_out(sp)
    if sp := add("expand", "expand a tree datum"):
        sp.add_argument("datum")
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--param", type=ints, default="",
                        help="comma-separated parameter values")
        tree_out(sp)
    if sp := add("poincare", "exact Poincare series"):
        sp.add_argument("--datum", help="tree datum JSON")
        sp.add_argument("--tree", help="tree JSON (coefficient mode)")
        sp.add_argument("--p", type=int, default=3,
                        help="prime for datum mode (default 3)")
        sp.add_argument("--coeffs", type=int, default=None,
                        help="expand the series to this order")
        out(sp, "json", "text")
    if sp := add("iso", "compare two trees up to isomorphism"):
        sp.add_argument("a")
        sp.add_argument("b")
        out(sp)
    if sp := add("realize", "witness cloud of a datum"):
        sp.add_argument("datum")
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--check", action="store_true",
                        help="verify the cloud against the expansion")
        out(sp)
        depth(sp)
    if sp := add("dot", "render a tree as DOT"):
        sp.add_argument("tree")
        sp.add_argument("--thick", action="store_true",
                        help="heavy pen on edges from nodes with full p-fold branching")
        sp.add_argument("--p", type=int, default=None,
                        help="branching factor for --thick")
        sp.add_argument("--labels", action="store_true")
        out(sp)
    return ap


# the payloads are fresh acyclic lists and dicts, so the encoder keeps no
# record of the containers it is in; the text is that of json.dumps
_dumps = json.JSONEncoder(check_circular=False).encode


def _label_texts(labels: list) -> list[str]:
    """The JSON text of each label of a layer inside its brackets, from one
    encoder call.  The labels are tuples of ints, so the layer is written as
    [[a, b], [c, d], ...] and its text split at "], [" is each label's text.
    An empty layer has no rows, so its one empty text is never read."""
    return _dumps(labels)[2:-2].split("], [")


def _emit(text: str, out):
    end = "" if text.endswith("\n") else "\n"
    if out:
        with open(out, "w") as fh:
            print(text, end=end, file=fh)
    else:
        print(text, end=end)


def _emit_tree(t, args) -> None:
    if args.format == "json":
        _emit(_dumps(t.to_json()), args.out)
    elif args.format == "dot":
        from .trees import to_dot

        _emit(to_dot(t), args.out)
    else:
        _emit(" ".join(str(n) for n in t.layer_sizes()), args.out)


def _cmd_enum(args) -> int:
    from .enum_trees import No, Unknown, Yes, lifted_tree
    from .polysys import PolySystem

    def status_tail(st, certs: list) -> str:
        """A status's sidecar row after its "status" key.  A yes appends its
        certificate, under the class it was made for, to certs and points at it."""
        if isinstance(st, No):
            return f'"no", "exhausted_at": {st.exhausted_at}}}'
        if not isinstance(st, Yes):
            return f'"unknown", "budget": {st.budget}}}'
        cert = {"kind": st.kind, "depth": st.depth, "label": list(st.label)}
        if st.kind == "witness":
            cert["point"] = [str(q) for q in st.certificate]
        elif st.kind != "exact":
            cert["cols"] = list(st.certificate.cols)
            cert["margin"] = st.certificate.margin
            if st.kind == "newton":
                cert["lift_depth"] = st.certificate.depth
        certs.append(cert)
        return f'"yes", "kind": "{st.kind}", "certificate": {len(certs) - 1}}}'

    system = PolySystem.load(args.system)
    delta = args.delta if args.delta is not None else args.depth
    t, statuses = lifted_tree(
        system, args.depth, delta,
        node_budget=args.node_budget, search_budget=args.cert_budget,
    )
    _emit_tree(t, args)
    if args.out:
        # one row per listed class, layer by layer as the walk listed them
        # and sorted by label within a layer, written as JSON text and
        # joined as json.dumps would; a class below a No is No too and its
        # row is implied.  The row tail is formatted once per status object,
        # which many classes share; a yes row points into the list of
        # distinct certificates.  Each layer is joined to one text as it is
        # written, so its label texts and rows are freed before the next
        certs, tails = [], {}

        def layer_rows(d, labels, layer) -> str:
            head = f'{{"depth": {d}, "label": ['
            texts = _label_texts(labels)
            rows = []
            for i in sorted(range(len(labels)), key=labels.__getitem__):
                st = layer[i]
                tail = tails.get(id(st))
                if tail is None:
                    tail = tails[id(st)] = status_tail(st, certs)
                rows.append(f'{head}{texts[i]}], "status": {tail}')
            return ", ".join(rows)

        layers = [
            layer_rows(d, labels, layer)
            for d, (labels, layer) in enumerate(zip(statuses.labels, statuses.statuses))
        ]
        # a layer with no listed class gives an empty text, which is no row
        sidecar = (
            f'{{"format": 1, "certificates": {_dumps(certs)}, '
            f'"statuses": [{", ".join(filter(None, layers))}]}}'
        )
        _emit(sidecar, args.out + ".status.json")
    unknowns = sum(isinstance(st, Unknown) for layer in statuses.statuses for st in layer)
    if unknowns:
        print(f"{unknowns} Unknown statuses remain", file=sys.stderr)
        return EXIT_UNKNOWN
    return EXIT_OK


def _cmd_naive(args) -> int:
    from .enum_trees import naive_tree
    from .polysys import PolySystem

    system = PolySystem.load(args.system)
    t = naive_tree(system, args.depth, args.node_budget)
    _emit_tree(t, args)
    return EXIT_OK


def _require_prime(p: int) -> None:
    if not _is_prime(p):
        raise DomainError(f"--p must be a prime, not {p}")


def _cmd_expand(args) -> int:
    from .datum import TreeDatum, expand

    _require_prime(args.p)
    D = TreeDatum.load(args.datum)
    t = expand(D, args.param, args.p, args.depth, args.node_budget)
    _emit_tree(t, args)
    return EXIT_OK


def _emit_coeffs(coeffs: list, args) -> int:
    if args.format == "json":
        _emit(_dumps({"format": 1, "coeffs": coeffs}), args.out)
    else:
        _emit(" ".join(str(c) for c in coeffs), args.out)
    return EXIT_OK


def _cmd_poincare(args) -> int:
    if (args.datum is None) == (args.tree is None):
        raise _UsageError("exactly one of --datum and --tree is required")
    if args.coeffs is not None and args.coeffs < 0:
        raise DomainError(f"--coeffs must be >= 0, not {args.coeffs}")
    if args.tree is not None:
        from .trees import TruncTree

        counts = TruncTree.load(args.tree).layer_sizes()
        if args.coeffs is not None:
            counts = counts[: args.coeffs + 1]
        return _emit_coeffs(counts, args)
    from .datum import TreeDatum
    from .poincare import datum_poincare
    from .ratfun import expand_series

    _require_prime(args.p)
    f = datum_poincare(TreeDatum.load(args.datum), args.p)
    if args.coeffs is not None:
        return _emit_coeffs([str(c) for c in expand_series(f, args.coeffs)], args)
    if args.format == "json":
        _emit(_dumps(f.to_json()), args.out)
    else:
        _emit(str(f), args.out)
    return EXIT_OK


def _cmd_iso(args) -> int:
    from .trees import TruncTree, is_isomorphic

    t1 = TruncTree.load(args.a)
    t2 = TruncTree.load(args.b)
    if t1.depth_cap != t2.depth_cap:
        _emit(
            f"not isomorphic: depth caps differ ({t1.depth_cap} vs {t2.depth_cap})",
            args.out,
        )
        return EXIT_FALSE
    if is_isomorphic(t1, t2):
        _emit("isomorphic", args.out)
        return EXIT_OK
    l1, l2 = t1.layer_sizes(), t2.layer_sizes()
    for d in range(min(t1.depth_cap, t2.depth_cap) + 1):
        if l1[d] != l2[d]:
            _emit(
                f"not isomorphic: layer {d} has {l1[d]} vs {l2[d]} nodes",
                args.out,
            )
            return EXIT_FALSE
    _emit("not isomorphic: equal layer sizes, different shapes", args.out)
    return EXIT_FALSE


def _cmd_realize(args) -> int:
    from .datum import TreeDatum
    from .realize import realize, verify_realization

    D = TreeDatum.load(args.datum)
    cloud = realize(D, args.depth, p=args.p)
    _emit(_dumps(cloud.to_json()), args.out)
    if args.check:
        report = verify_realization(cloud, D, args.p, args.depth)
        print(report.message, file=sys.stderr)
        return EXIT_OK if report.ok else EXIT_FALSE
    return EXIT_OK


def _cmd_dot(args) -> int:
    from .trees import TruncTree, to_dot

    t = TruncTree.load(args.tree)
    thick = None
    if args.thick:
        if args.p is None:
            raise _UsageError("--thick requires --p")
        kids = t.children_index()

        def thick(d, par, i):
            # an edge stands for a p-fold bundle when its node branches fully
            return len(kids[d - 1][par]) == args.p

    _emit(to_dot(t, thick_edge=thick, show_labels=args.labels), args.out)
    return EXIT_OK


_DISPATCH = {
    "enum": _cmd_enum,
    "naive": _cmd_naive,
    "expand": _cmd_expand,
    "poincare": _cmd_poincare,
    "iso": _cmd_iso,
    "realize": _cmd_realize,
    "dot": _cmd_dot,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a command line that names its command needs that parser only
        command = argv[0] if argv and argv[0] in _DISPATCH else None
        args = build_parser(command).parse_args(argv)
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PadicTreesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
