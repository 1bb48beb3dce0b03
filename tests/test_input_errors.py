"""Malformed input fails with a DomainError, and with exit code 2 in the CLI."""

import json
from fractions import Fraction

import pytest

from padictrees.cli import main
from padictrees.datum import TreeDatum, y_datum, zpn_datum
from padictrees.errors import PRIME_LIMIT, DomainError, _is_prime
from padictrees.gamma import linear, linear_from_json
from padictrees.padic import pval
from padictrees.poincare import datum_poincare
from padictrees.polysys import PolySystem, make_system
from padictrees.ratfun import expand_series
from padictrees.realize import realize
from padictrees.trees import TruncTree, full_tree, is_isomorphic, path_tree, y_tree


def _system_json(p, n, terms):
    return {
        "format": 1,
        "p": p,
        "n": n,
        "polys": [[{"c": str(c), "e": list(e)} for c, e in terms]],
        "witnesses": [],
        "allow_empty": False,
    }


def test_negative_exponent_rejected(tmp_path, capsys):
    with pytest.raises(DomainError):
        make_system(3, 1, [[(1, (-1,))]])
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(_system_json(3, 1, [(1, (-1,))])))
    assert main(["enum", str(path), "--depth", "2"]) == 2
    assert "negative exponent" in capsys.readouterr().err


def test_long_exponent_vector_rejected(tmp_path):
    # x*y^2 in one variable used to be read as x
    with pytest.raises(DomainError):
        make_system(3, 1, [[(1, (1, 2))]])
    with pytest.raises(DomainError):
        PolySystem.from_json(_system_json(3, 1, [(1, (1, 2))]))
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_system_json(3, 1, [(1, (1, 2))])))
    assert main(["naive", str(path), "--depth", "2"]) == 2
    # shorter vectors stay allowed: the missing exponents are zero
    assert make_system(3, 2, [[(1, (1,))]]).eval_poly(0, (2, 5)) == 2


def test_full_tree_of_a_point_and_bad_dimension():
    for cap in (0, 1, 4):
        assert is_isomorphic(full_tree(0, 3, cap), path_tree(cap))
    with pytest.raises(DomainError):
        full_tree(-1, 3, 2)


def test_tree_json_format_and_layers_checked(tmp_path, capsys):
    good = y_tree(1, 3).to_json()
    assert TruncTree.from_json(good).layer_sizes() == [1, 1, 2, 2]
    for bad in (
        {**good, "format": 2},
        {k: v for k, v in good.items() if k != "format"},
        {**good, "layers": [[0], [0], [0, 1], [0, 1, 2]]},
        {**good, "layers": [[0], [0], [0, 1]]},
        [1, 2],
        {**good, "parents": 5},
        {**good, "parents": [[0], 0, [0, 1]]},
        {**good, "parents": [[0], [None, 0], [0, 1]]},
        {k: v for k, v in good.items() if k != "parents"},
        {**good, "layers": 3},
        {**good, "labels": [[0], [0], 0, [0, 1]]},
        {**good, "depth_cap": "3"},
    ):
        with pytest.raises(DomainError):
            TruncTree.from_json(bad)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(bad))
        b.write_text(json.dumps(good))
        assert main(["iso", str(a), str(b)]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_tree_json_integers_are_not_booleans(tmp_path, capsys):
    # a JSON true or false was read as the integer 1 or 0
    good = y_tree(1, 3).to_json()
    for bad, field in (
        ({"format": 1, "depth_cap": True, "parents": [[False]]}, "depth_cap"),
        ({**good, "depth_cap": False, "parents": [], "layers": [[0]]}, "depth_cap"),
        ({**good, "parents": [[False], [0, 0], [0, 1]]}, "parent indices"),
        ({**good, "parents": [[0], [0, True], [0, 1]]}, "parent indices"),
    ):
        with pytest.raises(DomainError, match=field):
            TruncTree.from_json(bad)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(bad))
        b.write_text(json.dumps(good))
        assert main(["iso", str(a), str(b)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert field in err


def test_seed_flag_removed(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(y_tree(1, 3).to_json()))
    assert main(["dot", str(path), "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_primality_matches_trial_division():
    def by_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 3000) if _is_prime(n)] == [
        n for n in range(-3, 3000) if by_division(n)
    ]


def test_large_primes_decided_without_trial_division():
    # 2^61 - 1 used to take more than 20 s of trial division
    assert make_system(2**61 - 1, 1, [[(1, (1,))]]).p == 2**61 - 1
    assert _is_prime(PRIME_LIMIT - 59)  # the largest prime below 2^64
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2 through 23
    for n in (2**61 + 1, 3215031751, 3825123056546413051, PRIME_LIMIT - 1):
        assert not _is_prime(n)
        with pytest.raises(DomainError, match="not prime"):
            make_system(n, 1, [[(1, (1,))]])


def test_prime_beyond_the_limit_rejected(tmp_path, capsys):
    for p in (PRIME_LIMIT, PRIME_LIMIT + 13):
        with pytest.raises(DomainError, match="2\\^64"):
            make_system(p, 1, [[(1, (1,))]])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_system_json(PRIME_LIMIT + 13, 1, [(1, (1,))])))
    assert main(["enum", str(path), "--depth", "2"]) == 2
    assert "2^64" in capsys.readouterr().err
    path.write_text(json.dumps(_system_json(2**61 + 1, 1, [(1, (1,))])))
    assert main(["naive", str(path), "--depth", "2"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_malformed_system_json_is_an_input_error(tmp_path, capsys):
    good = _system_json(5, 2, [(1, (3, 0)), (-1, (0, 2))])
    assert PolySystem.from_json(good).n == 2
    for bad in (
        {"p": 5, "n": 2, "polys": 5},
        {"p": 5, "n": 2, "polys": [[[1, 2]]]},
        [1, 2],
        {**good, "polys": [[{"c": "1"}]]},
        {**good, "polys": [[{"e": [3, 0]}]]},
        {**good, "polys": [[{"c": "x", "e": [3, 0]}]]},
        {**good, "polys": [[{"c": "1", "e": 3}]]},
        {**good, "polys": [[{"c": "1", "e": [3, "y"]}]]},
        {k: v for k, v in good.items() if k != "p"},
        {**good, "n": [2]},
        {**good, "witnesses": ["0"]},
        {**good, "witnesses": [["1/0", "0"]]},
        {**good, "polys": [[{"c": "1", "e": [10**30, 0]}]]},
    ):
        with pytest.raises(DomainError):
            PolySystem.from_json(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        for command in ("naive", "enum"):
            assert main([command, str(path), "--depth", "2"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert "Traceback" not in err


def test_allow_empty_is_a_json_boolean(tmp_path, capsys):
    # allow_empty was read with bool(), so the string "false" meant true
    good = {"format": 1, "p": 3, "n": 1, "polys": [[{"c": "1", "e": [1]}]]}
    for flag in (True, False):
        assert PolySystem.from_json({**good, "allow_empty": flag}).allow_empty is flag
    assert PolySystem.from_json(good).allow_empty is False
    path = tmp_path / "bad.json"
    for polys, value in (([], "false"), ([], 1), ([], []), (good["polys"], "true"),
                         (good["polys"], 0), (good["polys"], None)):
        bad = {**good, "polys": polys, "allow_empty": value}
        with pytest.raises(DomainError, match="allow_empty"):
            PolySystem.from_json(bad)
        path.write_text(json.dumps(bad))
        for command in ("naive", "enum"):
            assert main([command, str(path), "--depth", "2"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert "'allow_empty'" in err and repr(value) in err


def test_leaf_repeat_must_be_positive(tmp_path, capsys):
    data = zpn_datum(1, 3).to_json()
    (leaf,) = data["joint_branches"][0]["leaves"]
    assert leaf["repeat"] == 2
    path = tmp_path / "bad.datum.json"
    for k in (0, -2, 10**30):
        leaf["repeat"] = k
        path.write_text(json.dumps(data))
        assert main(["expand", str(path), "--p", "3", "--depth", "2"]) == 2
        assert "repeat" in capsys.readouterr().err


def test_malformed_datum_json_is_an_input_error(tmp_path, capsys):
    good = zpn_datum(1, 3).to_json()
    path = tmp_path / "bad.datum.json"
    for bad, field in (
        ([1, 2], "JSON object"),
        ({"format": 1}, "'level'"),
        ({k: v for k, v in good.items() if k != "skeleton"}, "'skeleton'"),
        ({k: v for k, v in good.items() if k != "bone_branches"}, "'bone_branches'"),
        ({**good, "skeleton": 5}, "'skeleton'"),
        ({**good, "domain": 5}, "'domain'"),
        ({**good, "skeleton": {"parents": [], "bones": [5]}}, "'skeleton'"),
        ({**good, "bone_branches": [{**good["bone_branches"][0], "piece": 5}]}, "'piece'"),
        (
            {**good, "joint_branches": [
                {k: v for k, v in good["joint_branches"][0].items() if k != "leaves"}
            ]},
            "'leaves'",
        ),
    ):
        path.write_text(json.dumps(bad))
        for argv in (
            ["expand", str(path), "--p", "3", "--depth", "2"],
            ["realize", str(path), "--p", "3", "--depth", "2"],
            ["poincare", "--datum", str(path)],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert field in err and "Traceback" not in err


def test_malformed_datum_numbers_are_input_errors(tmp_path, capsys):
    # a null, list, bool or float integer field, a parent or fintree entry
    # that is not an integer, or a linear form with a null or list number,
    # used to raise TypeError or be read as an int
    good = zpn_datum(1, 3).to_json()
    joint = good["joint_branches"][0]
    leaf = joint["leaves"][0]
    sk = good["skeleton"]
    cell = good["domain"]["cells"][0]
    # two leaves written out, one with a float level: JSON values that
    # compare equal are not equal data, in either order
    one = {"side": leaf["side"]}
    floated = {"side": {**leaf["side"], "level": 0.0}}
    path = tmp_path / "bad.datum.json"
    for bad, field in (
        ({**good, "joint_branches": [{**joint, "leaves": [one, floated]}]}, "'level'"),
        ({**good, "joint_branches": [{**joint, "leaves": [floated, one]}]}, "'level'"),
        ({**good, "m": None}, "'m'"),
        ({**good, "rho": []}, "'rho'"),
        ({**good, "rho": True}, "'rho'"),
        ({**good, "level": 1.5}, "'level'"),
        ({**good, "joint_branches": [{**joint, "joint": None}]}, "'joint'"),
        ({**good, "skeleton": {**sk, "parents": [-1, "a"]}}, "'parents'"),
        ({**good, "joint_branches": [{**joint, "fintree": [-1, 0, None]}]}, "'fintree'"),
        ({**good, "joint_branches": [{**joint, "leaves": [{**leaf, "repeat": "x"}]}]}, "'repeat'"),
        ({**good, "joint_branches": [{**joint, "leaves": [{**leaf, "side": None}]}]}, "'side'"),
        ({**good, "domain": {**good["domain"], "m": None}}, "'m'"),
        ({**good, "domain": {"cells": [{**cell, "cong": [{"r": None, "rho": 1}]}]}}, "'r'"),
        ({**good, "skeleton": {**sk, "bones": [{**sk["bones"][0], "len": {"a": [], "b": None}}]}},
         "'len'"),
    ):
        path.write_text(json.dumps(bad))
        for argv in (
            ["expand", str(path), "--p", "3", "--depth", "2"],
            ["realize", str(path), "--p", "3", "--depth", "2"],
            ["poincare", "--datum", str(path)],
        ):
            assert main(argv) == 2, (argv, bad)
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert field in err and "Traceback" not in err


def test_linear_form_numbers_are_integers_or_fraction_strings(tmp_path, capsys):
    # a bool or float entry of a form was read as a number, and a malformed
    # string or a zero denominator escaped without naming the form
    good = zpn_datum(1, 3).to_json()
    sk = good["skeleton"]
    bone = good["bone_branches"][0]
    piece = bone["piece"]
    path = tmp_path / "bad.datum.json"
    for form in (
        {"a": [True], "b": "1"},
        {"a": [], "b": 0.1},
        {"a": [], "b": "--3"},
        {"a": [], "b": "1/0"},
        {"a": [], "b": False},
    ):
        with pytest.raises(DomainError, match="linear form"):
            linear_from_json(form)
        for bad, field in (
            ({**good, "skeleton": {**sk, "bones": [{**sk["bones"][0], "len": form}]}},
             "'len'"),
            ({**good, "bone_branches": [
                {**bone, "piece": {**piece, "bounds": [{"lo": form, "hi": "inf"}]}}]},
             "'piece'"),
        ):
            path.write_text(json.dumps(bad))
            for argv in (
                ["expand", str(path), "--p", "3", "--depth", "2"],
                ["realize", str(path), "--p", "3", "--depth", "2"],
                ["poincare", "--datum", str(path)],
            ):
                assert main(argv) == 2, (argv, bad)
                err = capsys.readouterr().err
                assert err.startswith("error:") and err.count("\n") == 1, err
                assert field in err and repr(form) in err and "Traceback" not in err
    # JSON integers and the strings linear_json writes are read exactly
    assert linear_from_json({"a": [3, "-1/2", " 4 "], "b": "6/3"}) == linear([3, Fraction(-1, 2), 4], 2)


def test_non_prime_p_rejected_by_expand_and_poincare(tmp_path, capsys):
    path = tmp_path / "y.json"
    path.write_text(json.dumps(y_datum(1, m=0).to_json()))
    for p in ("4", "1", "0", "-3"):
        for argv in (
            ["expand", str(path), "--p", p, "--depth", "3"],
            ["poincare", "--datum", str(path), "--p", p, "--coeffs", "3"],
            ["poincare", "--datum", str(path), "--p", p],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --p must be a prime, not {p}\n"
    # a prime still works
    assert main(["expand", str(path), "--p", "5", "--depth", "3", "--format", "text"]) == 0
    assert capsys.readouterr().out == "1 1 2 2\n"


def test_pval_needs_a_prime():
    for p in (1, 0, -2):
        with pytest.raises(DomainError, match=f"p = {p}"):
            pval(p, 5)
        with pytest.raises(DomainError):
            pval(p, 0)
    assert pval(5, 250) == 3 and pval(2, 0) is None


def test_prime_too_large_to_enumerate_is_refused(tmp_path, capsys):
    # listing x = 0 mod p would go through all p digits before the budget
    p = 2**61 - 1
    path = tmp_path / "x.json"
    path.write_text(json.dumps(_system_json(p, 1, [(1, (1,))])))
    for cmd in ("naive", "enum"):
        argv = [cmd, str(path), "--depth", "1", "--node-budget", "10"]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert f"{p}^1" in err and "node budget of 10" in err


def test_negative_orders_and_depths_refused(tmp_path, capsys):
    datum = tmp_path / "y.json"
    datum.write_text(json.dumps(y_datum(1, m=0).to_json()))
    tree = tmp_path / "t.json"
    tree.write_text(json.dumps(y_tree(1, 3).to_json()))
    for argv in (
        ["poincare", "--datum", str(datum), "--p", "3", "--coeffs", "-1"],
        ["poincare", "--tree", str(tree), "--coeffs", "-1"],
        ["realize", str(datum), "--p", "3", "--depth", "-1"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "-1" in captured.err
    with pytest.raises(DomainError, match="order"):
        expand_series(datum_poincare(y_datum(1, m=0), 3), -1)
    with pytest.raises(DomainError, match="depth"):
        realize(y_datum(1, m=0), -1, p=3)


def test_a_dimension_too_large_to_enumerate_is_refused(tmp_path, capsys):
    # p^n was formed to compare it with the node budget, which for
    # n = 10^30 never returned
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_system_json(3, 10**30, [(1, (1,))])))
    for command in ("naive", "enum"):
        assert main([command, str(path), "--depth", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "node budget" in err and err.count("\n") == 1, err


def test_a_file_that_is_not_utf8_json_names_its_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    good = tmp_path / "good.json"
    good.write_text(json.dumps(y_tree(1, 3).to_json()))
    for content in (b"\xff\xfe{}", b"{\"p\": 3,", b"[" * 100_000):
        bad.write_bytes(content)
        for argv in (
            ["naive", str(bad), "--depth", "2"],
            ["expand", str(bad), "--p", "3", "--depth", "2"],
            ["poincare", "--datum", str(bad)],
            ["iso", str(bad), str(good)],
            ["dot", str(bad)],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read {bad} as UTF-8 JSON:"), err
            assert err.count("\n") == 1, err


@pytest.mark.parametrize("value", [True, 1.5, None])
def test_reader_error_texts_are_pinned(value):
    # the readers build their messages only when they refuse, so the texts
    # are pinned here byte for byte, as the reader wrote them when it built
    # them on every read
    good = zpn_datum(1, 3).to_json()
    joint, bone = good["joint_branches"][0], good["bone_branches"][0]
    domain, piece = good["domain"], bone["piece"]
    v = repr(value)

    def cong(r, rho):
        return {**domain, "cells": [{**domain["cells"][0], "cong": [{"r": r, "rho": rho}]}]}

    def lo(form):
        return {**good, "bone_branches": [
            {**bone, "piece": {**piece, "bounds": [{"lo": form, "hi": "inf"}]}}]}

    int_msg = "must be an integer, not " + v
    form_a, form_b = {"a": [1, value], "b": "1"}, {"a": [], "b": value}
    for bad, want in (
        ({**good, "level": value}, "tree datum field 'level' " + int_msg),
        ({**good, "m": value}, "tree datum field 'm' " + int_msg),
        ({**good, "rho": value}, "tree datum field 'rho' " + int_msg),
        ({**good, "joint_branches": [
            {**joint, "leaves": [{**joint["leaves"][0], "repeat": value}]}]},
         "a joint branch: leaf field 'repeat' " + int_msg),
        ({**good, "domain": cong(value, 1)}, "tree datum field 'domain': cell field 'r' " + int_msg),
        ({**good, "domain": cong(0, value)}, "tree datum field 'domain': cell field 'rho' " + int_msg),
        (lo(form_a), "bone branch field 'piece': an entry of the linear form "
         f"{form_a!r} must be an integer or a fraction string, not {v}"),
        (lo(form_b), "bone branch field 'piece': an entry of the linear form "
         f"{form_b!r} must be an integer or a fraction string, not {v}"),
    ):
        with pytest.raises(DomainError) as exc:
            TreeDatum.from_json(json.loads(json.dumps(bad)))
        assert str(exc.value) == want
    for form in ({"a": [value], "b": "1"}, form_a, form_b):
        with pytest.raises(DomainError) as exc:
            linear_from_json(form)
        assert str(exc.value) == (
            f"an entry of the linear form {form!r} must be an integer or a fraction string, not {v}"
        )
