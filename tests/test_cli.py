"""End-to-end tests of the command line interface."""

import hashlib
import json

import pytest

from padictrees.cli import _DISPATCH, _UsageError, _label_texts, build_parser, main
from padictrees.datum import cusp_datum, expand_counts, point_datum, y_datum
from padictrees.enum_trees import No, Yes, lifted_tree
from padictrees.gamma import INFINITY, GammaSet, interval_cell
from padictrees.poincare import datum_poincare
from padictrees.polysys import cusp_system, make_system
from padictrees.ratfun import RationalGF, gf_equal
from padictrees.realize import WitnessCloud, realize, verify_realization
from padictrees.trees import TruncTree, full_tree, is_isomorphic, to_dot, y_tree


@pytest.fixture
def files(tmp_path):
    paths = {}

    def put(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
        return str(p)

    put("parabola.json", make_system(3, 2, [[(1, (0, 1)), (-1, (2, 0))]]).to_json())
    put("cusp.json", cusp_system(5).to_json())
    put("cusp_nowit.json", cusp_system(5, with_witness=False).to_json())
    put("point.json", point_datum().to_json())
    put("y2.json", y_datum(2, m=0).to_json())
    put("cuspdatum.json", cusp_datum(5).to_json())
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enum_text(files, capsys):
    code, out, _ = run(
        capsys, "enum", files["parabola.json"], "--depth", "3", "--format", "text"
    )
    assert code == 0
    assert out.strip() == "1 3 9 27"


def test_enum_json_and_status_sidecar(files, capsys, tmp_path):
    out_path = str(tmp_path / "tree.json")
    code, _, _ = run(
        capsys, "enum", files["cusp.json"], "--depth", "3", "--out", out_path
    )
    assert code == 0
    t = TruncTree.load(out_path)
    assert t.layer_sizes() == [1, 5, 21, 103]
    status = json.loads(open(out_path + ".status.json").read())
    assert status["format"] == 1
    kinds = {row["status"] for row in status["statuses"]}
    assert kinds <= {"yes", "no"}
    assert any(row["status"] == "yes" and row["kind"] == "witness"
               for row in status["statuses"])


def test_enum_unknown_exit_code(files, capsys):
    code, _, err = run(
        capsys, "enum", files["cusp_nowit.json"],
        "--depth", "2", "--delta", "0", "--format", "text",
    )
    assert code == 3
    assert "Unknown" in err


def test_naive(files, capsys):
    code, out, _ = run(
        capsys, "naive", files["cusp.json"], "--depth", "2", "--format", "text"
    )
    assert code == 0
    assert out.strip() == "1 5 45"


def test_expand_point(files, capsys):
    code, out, _ = run(
        capsys, "expand", files["point.json"], "--p", "3", "--depth", "3",
        "--format", "text",
    )
    assert code == 0
    assert out.strip() == "1 1 1 1"


def test_expand_json_round_trip(files, capsys, tmp_path):
    out_path = str(tmp_path / "y2.tree.json")
    code, _, _ = run(
        capsys, "expand", files["y2.json"], "--p", "3", "--depth", "6",
        "--out", out_path,
    )
    assert code == 0
    assert is_isomorphic(TruncTree.load(out_path), y_tree(2, 6))


def test_poincare_datum_gf(files, capsys):
    code, out, _ = run(
        capsys, "poincare", "--datum", files["point.json"], "--format", "text"
    )
    assert code == 0
    assert out.strip() == "(1) / (1 - Z)"


def test_poincare_datum_coeffs(files, capsys):
    code, out, _ = run(
        capsys, "poincare", "--datum", files["cuspdatum.json"], "--p", "5",
        "--coeffs", "8", "--format", "text",
    )
    assert code == 0
    assert out.split() == "1 5 21 103 521 2603 13011 65103 325511".split()


def test_poincare_datum_with_thin_cells_in_its_joint_set(files, capsys):
    # the joint set of a two-cell m = 1 domain has 2-dimensional cells in a
    # sampling box of side 1011, but only about 500 points in them
    doc = point_datum(m=1).to_json()
    doc["domain"] = GammaSet((interval_cell(0, 499), interval_cell(500, INFINITY)), 1).to_json()
    path = files["dir"] + "/thin.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run(capsys, "poincare", "--datum", path, "--format", "text")
    assert (code, err) == (0, "")
    assert out.strip() == "(1) / (1 - Y1)(1 - Z)"


def test_poincare_tree_coeffs(files, capsys, tmp_path):
    tree_path = str(tmp_path / "t.json")
    run(capsys, "expand", files["y2.json"], "--p", "3", "--depth", "5",
        "--out", tree_path)
    code, out, _ = run(
        capsys, "poincare", "--tree", tree_path, "--format", "text"
    )
    assert code == 0
    assert out.strip() == "1 1 1 2 2 2"


def test_poincare_json_outputs(files, capsys, tmp_path):
    # --format json is the default for the series and for its coefficients
    for name, datum, p in (("cuspdatum.json", cusp_datum(5), 5), ("y2.json", y_datum(2, m=0), 3)):
        code, out, _ = run(capsys, "poincare", "--datum", files[name], "--p", str(p))
        assert code == 0
        f, g = RationalGF.from_json(json.loads(out)), datum_poincare(datum, p)
        assert f == g and gf_equal(f, g)
        code, out, _ = run(capsys, "poincare", "--datum", files[name], "--p", str(p),
                           "--coeffs", "7")
        assert code == 0
        data = json.loads(out)
        assert data["format"] == 1
        assert [int(c) for c in data["coeffs"]] == expand_counts(datum, (), p, 7)
    tree_path = str(tmp_path / "t.json")
    run(capsys, "expand", files["y2.json"], "--p", "3", "--depth", "5", "--out", tree_path)
    for k, counts in ((3, [1, 1, 1, 2]), (0, [1]), (9, [1, 1, 1, 2, 2, 2])):
        code, out, _ = run(capsys, "poincare", "--tree", tree_path, "--coeffs", str(k))
        assert code == 0 and json.loads(out) == {"format": 1, "coeffs": counts}


def test_poincare_requires_one_source(files, capsys):
    code, _, err = run(capsys, "poincare", "--format", "text")
    assert code == 2
    assert "usage" in err


def test_iso_matching_and_not(files, capsys, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    run(capsys, "expand", files["cuspdatum.json"], "--p", "5", "--depth", "4",
        "--out", a)
    run(capsys, "enum", files["cusp.json"], "--depth", "4", "--out", b)
    code, out, _ = run(capsys, "iso", a, b)
    assert code == 0 and out.strip() == "isomorphic"
    c = str(tmp_path / "c.json")
    run(capsys, "expand", files["y2.json"], "--p", "3", "--depth", "4",
        "--out", c)
    code, out, _ = run(capsys, "iso", a, c)
    assert code == 1 and "not isomorphic" in out


def test_iso_equal_layer_sizes_different_shapes(capsys, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    # both have layers 1 2 2: one node with two children, or two with one each
    for path, tree in ((a, TruncTree(2, [[0, 0], [0, 0]])), (b, TruncTree(2, [[0, 0], [0, 1]]))):
        with open(path, "w") as fh:
            json.dump(tree.to_json(), fh)
    code, out, err = run(capsys, "iso", a, b)
    assert code == 1 and err == ""
    assert out == "not isomorphic: equal layer sizes, different shapes\n"


def test_iso_depth_cap_mismatch(files, capsys, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    run(capsys, "expand", files["point.json"], "--p", "3", "--depth", "3", "--out", a)
    run(capsys, "expand", files["point.json"], "--p", "3", "--depth", "4", "--out", b)
    code, out, _ = run(capsys, "iso", a, b)
    assert code == 1 and "depth caps differ" in out


def test_realize_and_check(files, capsys, tmp_path):
    out_path = str(tmp_path / "cloud.json")
    code, _, err = run(
        capsys, "realize", files["y2.json"], "--p", "3", "--depth", "6",
        "--check", "--out", out_path,
    )
    assert code == 0
    assert "matches" in err
    cloud = WitnessCloud.load(out_path)
    assert verify_realization(cloud, y_datum(2, m=0), 3, 6).ok


def test_realize_without_check(files, capsys):
    code, out, err = run(capsys, "realize", files["y2.json"], "--p", "3", "--depth", "6")
    assert code == 0 and err == ""
    assert out == json.dumps(realize(y_datum(2, m=0), 6, p=3).to_json()) + "\n"


@pytest.mark.parametrize("argv", [
    ("enum", "cusp.json", "--depth", "3"),
    ("naive", "parabola.json", "--depth", "3"),
    ("expand", "cuspdatum.json", "--p", "5", "--depth", "3"),
])
def test_tree_commands_write_dot(files, capsys, argv):
    command, name, *rest = argv
    code, out, _ = run(capsys, command, files[name], *rest)
    assert code == 0
    tree = TruncTree.from_json(json.loads(out))
    code, out, _ = run(capsys, command, files[name], *rest, "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    assert out == to_dot(tree) + "\n"


def test_dot_output(files, capsys, tmp_path):
    tree_path = str(tmp_path / "t.json")
    run(capsys, "expand", files["cuspdatum.json"], "--p", "5", "--depth", "3",
        "--out", tree_path)
    code, out, _ = run(capsys, "dot", tree_path)
    assert code == 0
    assert out.startswith("digraph")
    code, out, _ = run(capsys, "dot", tree_path, "--thick", "--p", "5")
    assert code == 0
    assert "penwidth" in out
    code, _, err = run(capsys, "dot", tree_path, "--thick")
    assert code == 2
    # --thick marks the edges out of nodes with exactly p children
    for tree, thick_edges in ((full_tree(1, 5, 3), 155), (y_tree(1, 3), 0)):
        with open(tree_path, "w") as fh:
            json.dump(tree.to_json(), fh)
        code, out, _ = run(capsys, "dot", tree_path, "--thick", "--p", "5")
        assert code == 0
        edges = [line for line in out.splitlines() if "->" in line]
        assert len(edges) == tree.num_nodes() - 1
        assert sum("penwidth" in line for line in edges) == thick_edges


def test_usage_errors(files, capsys):
    code, _, err = run(capsys, "enum", files["cusp.json"])  # missing --depth
    assert code == 2
    code, _, err = run(capsys, "enum", files["dir"] + "/nope.json", "--depth", "2")
    assert code == 2
    code, _, err = run(capsys, "expand", files["cusp.json"], "--p", "5",
                       "--depth", "2")  # a system is not a datum
    assert code == 2


def test_param_is_parsed_as_integers(files, capsys):
    code, _, err = run(capsys, "expand", files["y2.json"], "--p", "3", "--depth", "2",
                       "--param", "a")
    assert code == 2 and err.startswith("usage error: argument --param:"), err


def test_a_fault_in_a_command_is_not_an_input_error(files, monkeypatch):
    # only PadicTreesError and OSError are input errors; a KeyError or
    # ValueError from a fault inside a command is raised, not exit 2
    for exc in (KeyError("x"), ValueError("x")):
        def fault(args):
            raise exc

        monkeypatch.setitem(_DISPATCH, "naive", fault)
        with pytest.raises(type(exc)):
            main(["naive", files["cusp.json"], "--depth", "2"])


def test_enum_deterministic_output(files, capsys, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    run(capsys, "enum", files["cusp.json"], "--depth", "3", "--out", a)
    run(capsys, "enum", files["cusp.json"], "--depth", "3", "--out", b)
    assert open(a, "rb").read() == open(b, "rb").read()
    assert (
        open(a + ".status.json", "rb").read()
        == open(b + ".status.json", "rb").read()
    )


def test_enum_sidecar_rows_keep_the_class_depth(files, capsys, tmp_path):
    out_path = str(tmp_path / "tree.json")
    code, _, _ = run(capsys, "enum", files["cusp.json"], "--depth", "3", "--out", out_path)
    assert code == 0
    status = json.loads(open(out_path + ".status.json").read())
    rows, certs = status["statuses"], status["certificates"]
    by_key = {(row["depth"], tuple(row["label"])): row for row in rows}
    assert max(row["depth"] for row in rows) == 3
    assert len({(row["depth"], tuple(row["label"])) for row in rows}) == len(rows)
    for row in rows:
        assert all(0 <= x < 5 ** row["depth"] for x in row["label"])
        if row["status"] != "yes":
            continue
        cert = certs[row["certificate"]]
        assert cert["kind"] == row["kind"]
        # the certified class is the row's class, a descendant or, for a
        # Hensel certificate, the covering class above it
        d = min(cert["depth"], row["depth"])
        assert [x % 5**d for x in cert["label"]] == [x % 5**d for x in row["label"]]
        if row["kind"] == "hensel":
            # the covering class has a minor of valuation margin, at depth
            # >= margin + 1; a covered row lies below it, and the covering
            # class's own row carries the same certificate.  A row above it
            # inherits the certificate from a search, as a newton row does
            assert cert["cols"] in ([0], [1]) and cert["depth"] >= cert["margin"] + 1
            if cert["depth"] <= row["depth"]:
                top = by_key[cert["depth"], tuple(cert["label"])]
                assert top["certificate"] == row["certificate"]
        if row["kind"] == "newton":
            assert {"cols", "margin", "lift_depth"} <= set(cert)
    assert {"witness", "hensel"} <= {row["kind"] for row in rows if row["status"] == "yes"}


def _full_parser_says(capsys, argv):
    """Exit code, stdout and stderr of the full parser on a line it rejects
    or answers with help."""
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code, capsys.readouterr().out, ""
    except _UsageError as exc:
        return 2, "", f"usage error: {exc}\n"
    raise AssertionError(f"{argv} parses")


def test_one_subparser_answers_as_the_full_parser(capsys):
    # main builds only the named command's subparser; help, usage errors
    # and exit codes must not change
    lines = [["--help"], [], ["frobnicate", "x"], ["--depth", "3", "enum"]]
    lines += [[cmd, "--help"] for cmd in _DISPATCH]
    lines += [[cmd] for cmd in _DISPATCH if cmd != "poincare"]
    lines += [
        ["realize", "d.json", "--p", "3"],
        ["enum", "s.json", "--depth", "x"],
        ["iso", "a.json", "b.json", "--bogus"],
        ["dot", "t.json", "--format", "png"],
    ]
    for argv in lines:
        want = _full_parser_says(capsys, argv)
        try:
            got = main(argv), *capsys.readouterr()
        except SystemExit as exc:
            got = exc.code, *capsys.readouterr()
        assert got == want, argv
    with pytest.raises(_UsageError, match="invalid choice: 'enum'"):
        build_parser("iso").parse_args(["enum", "s.json", "--depth", "2"])


def test_one_subparser_parses_as_the_full_parser():
    # a valid line per command, and an enum line that sets every flag, give
    # the same Namespace from the command's own parser as from the full one
    lines = [
        ["enum", "s.json", "--depth", "3"],
        ["enum", "s.json", "--delta", "2", "--cert-budget", "7", "--out", "o.json",
         "--format", "dot", "--node-budget", "99", "--depth", "3"],
        ["naive", "s.json", "--depth", "2", "--format", "text"],
        ["expand", "d.json", "--p", "3", "--param", "1,2", "--depth", "4"],
        ["poincare", "--datum", "d.json", "--p", "5", "--coeffs", "6"],
        ["iso", "a.json", "b.json", "--out", "o.txt"],
        ["realize", "d.json", "--p", "3", "--depth", "4", "--check"],
        ["dot", "t.json", "--thick", "--p", "3", "--labels"],
    ]
    assert {argv[0] for argv in lines} == set(_DISPATCH)
    for argv in lines:
        assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv), argv


def _reference_sidecar(statuses) -> bytes:
    """The status sidecar written with json.dumps on one dict per row, the
    listed classes sorted by (depth, label), certificates numbered in
    first-seen row order."""
    certs, index, rows = [], {}, []
    for (d, lab), st in sorted(statuses.listed.items(), key=lambda kv: kv[0]):
        row = {"depth": d, "label": list(lab)}
        if isinstance(st, Yes):
            if id(st) not in index:
                index[id(st)] = len(certs)
                cert = {"kind": st.kind, "depth": st.depth, "label": list(st.label)}
                if st.kind == "witness":
                    cert["point"] = [str(q) for q in st.certificate]
                if st.kind in ("newton", "hensel"):
                    cert["cols"] = list(st.certificate.cols)
                    cert["margin"] = st.certificate.margin
                if st.kind == "newton":
                    cert["lift_depth"] = st.certificate.depth
                certs.append(cert)
            row.update(status="yes", kind=st.kind, certificate=index[id(st)])
        elif isinstance(st, No):
            row.update(status="no", exhausted_at=st.exhausted_at)
        else:
            row.update(status="unknown", budget=st.budget)
        rows.append(row)
    doc = {"format": 1, "certificates": certs, "statuses": rows}
    return (json.dumps(doc) + "\n").encode()


@pytest.mark.parametrize("system, depth, budget, kinds", [
    (cusp_system(3), 5, 4000, {"witness", "hensel", "no"}),
    (make_system(3, 1, [[(1, (2,))]]), 16, 4000, {"exact", "no"}),  # double-root-p3
    (make_system(3, 3, [[(1, (3, 0, 0)), (1, (0, 3, 0)), (3, (0, 0, 3))]]), 3, 1,
     {"hensel", "exact", "no", "unknown"}),
    (make_system(2, 1, [[(1, (2,)), (-17, ())]]), 5, 4000, {"newton", "hensel", "no"}),
])
def test_enum_sidecar_matches_a_json_dumps_writer(tmp_path, capsys, system, depth, budget, kinds):
    src = tmp_path / "sys.json"
    src.write_text(json.dumps(system.to_json()))
    out = str(tmp_path / "tree.json")
    code = main(["enum", str(src), "--depth", str(depth), "--out", out,
                 "--cert-budget", str(budget)])
    assert code == (3 if "unknown" in kinds else 0)
    capsys.readouterr()
    _, statuses = lifted_tree(system, depth, depth, search_budget=budget)
    got = open(out + ".status.json", "rb").read()
    assert got == _reference_sidecar(statuses)
    rows = json.loads(got)["statuses"]
    assert {row.get("kind", row["status"]) for row in rows} == kinds


@pytest.mark.parametrize("labels", [
    [(0,)],
    [(3,), (0,), (2**64 + 1,)],
    [(1, 2), (0, 2**70), (2**64, 5)],
    [(1, 2, 3), (2**65 + 3, 0, 7)],
    [],
])
def test_label_texts_match_a_join_of_each_label(labels):
    texts = _label_texts(labels)
    if labels:
        assert texts == [", ".join(map(str, lab)) for lab in labels]
    else:
        assert texts == [""]  # an empty layer has no rows to read it


# md5 of the outputs on the cusp x^3 = y^2 with its witness at p = 3, depth
# 5, as written before the children kernel and the layer-wise sidecar writer
# were introduced; a speed-up must not change a byte of them.  The sidecar's
# digest was taken again when the valuative Hensel cover replaced the Newton
# and exact certificates below a covering class by its hensel certificate,
# which carries a margin; its statuses and exhausted_at did not change
_GOLDEN = {
    "enum": "4245ed4b40d109b110dd618b8c7d6b8d",
    "enum.status": "dd4caf4dac7b01f1ddfd44b2e328fcda",
    "naive": "4e4dcf99e57ab253210b728605aa6657",
}


def test_cusp_outputs_match_their_golden_digests(tmp_path, capsys):
    src = tmp_path / "cusp.json"
    src.write_text(json.dumps(cusp_system(3).to_json()))
    got = {}
    for cmd in ("enum", "naive"):
        out = tmp_path / f"{cmd}.json"
        assert main([cmd, str(src), "--depth", "5", "--out", str(out)]) == 0
        got[cmd] = hashlib.md5(out.read_bytes()).hexdigest()
    got["enum.status"] = hashlib.md5((tmp_path / "enum.json.status.json").read_bytes()).hexdigest()
    assert got == _GOLDEN


# md5 of the tree JSON and the status sidecar of `enum --depth 4` on the
# benchmark's other shapes: y = x^2 at p = 5, x^2 = 0 at p = 3 and the
# empty system (Z_5)
_GOLDEN_SHAPES = {
    "parabola-p5": (
        make_system(5, 2, [[(1, (0, 1)), (-1, (2, 0))]], [(0, 0)]),
        "58ed5261a3a7c851cd12e77c3ee3dd4f", "6cc36dd570ec9fbc6f6081e5ac09efa2",
    ),
    "double-root-p3": (
        make_system(3, 1, [[(1, (2,))]]),
        "b8389070c310e17c5ce587337563a6a8", "6dcbbfb9e7fc66f51eab11a6e1701283",
    ),
    "zp-p5": (
        make_system(5, 1, [], allow_empty=True),
        "ee5b5391b08ccbc28bed07f0675bfe97", "0c33bfd254fe13ecffeff84131d238dd",
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_SHAPES))
def test_enum_outputs_match_their_golden_digests(tmp_path, name):
    system, tree_md5, status_md5 = _GOLDEN_SHAPES[name]
    src, out = tmp_path / "sys.json", tmp_path / "tree.json"
    src.write_text(json.dumps(system.to_json()))
    assert main(["enum", str(src), "--depth", "4", "--out", str(out)]) == 0
    got = [hashlib.md5(path.read_bytes()).hexdigest()
           for path in (out, tmp_path / "tree.json.status.json")]
    assert got == [tree_md5, status_md5]


def test_subcommands_refuse_flags_they_do_not_read(files, capsys):
    # each subcommand declares only the flags it reads
    refused = [
        ["realize", files["point.json"], "--p", "3", "--depth", "2", "--format", "text"],
        ["realize", files["point.json"], "--p", "3", "--depth", "2", "--node-budget", "1"],
        ["poincare", "--datum", files["point.json"], "--node-budget", "1"],
        ["poincare", "--datum", files["point.json"], "--format", "dot"],
        ["iso", files["point.json"], files["point.json"], "--format", "json"],
        ["iso", files["point.json"], files["point.json"], "--node-budget", "5"],
        ["dot", files["point.json"], "--format", "json"],
        ["dot", files["point.json"], "--node-budget", "5"],
    ]
    for argv in refused:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("usage error: unrecognized arguments") or (
            "invalid choice: 'dot'" in err
        ), argv


def test_expand_keeps_its_node_budget(files, capsys):
    argv = ["expand", files["point.json"], "--p", "3", "--depth", "2", "--format", "text"]
    assert run(capsys, *argv, "--node-budget", "3")[:2] == (0, "1 1 1\n")
    code, _, err = run(capsys, *argv, "--node-budget", "2")
    assert code == 2 and err == "error: expansion exceeds 2 nodes\n"
