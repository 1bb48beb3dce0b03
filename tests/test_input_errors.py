"""Malformed input fails with a DomainError, and with exit code 2 in the CLI."""

import json

import pytest

from padictrees.cli import main
from padictrees.errors import DomainError
from padictrees.polysys import PRIME_LIMIT, PolySystem, _is_prime, make_system
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
    ):
        with pytest.raises(DomainError):
            TruncTree.from_json(bad)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(bad))
        b.write_text(json.dumps(good))
        assert main(["iso", str(a), str(b)]) == 2
        assert capsys.readouterr().err.startswith("error:")


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
