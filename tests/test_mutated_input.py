"""Mutated input files.  Each test starts from a valid file of one kind and
changes one place in it: the value there becomes a null, a boolean, a float,
a list, an object, +-10^30 or a string, or its key is deleted.  A command
reading the file answers, or fails with exit 2 and one error line; a reader
without a command returns a value or raises a PadicTreesError.  Never a
traceback, and never a hang."""

import io
import json
import signal
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from padictrees.cli import main
from padictrees.datum import cusp_datum, y_datum, zpn_datum
from padictrees.enum_trees import naive_tree
from padictrees.errors import PadicTreesError
from padictrees.gamma import INFINITY, GammaCell, GammaSet, cell, linear
from padictrees.poincare import datum_poincare
from padictrees.polysys import cusp_system
from padictrees.ratfun import RationalGF
from padictrees.realize import WitnessCloud, realize

DELETE = object()
VALUES = (None, True, False, 0.5, [], [0], {}, 10**30, -(10**30), "x", DELETE)


def _paths(doc, path=()):
    """The path of every value in doc, doc's own (the empty path) first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, path + (key,))


def _mutated(doc, path, value):
    """A copy of doc with the value at path replaced, or deleted."""
    if not path:
        return {} if value is DELETE else value
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return doc


def _mutants(doc):
    return st.builds(_mutated, st.just(doc), st.sampled_from(list(_paths(doc))),
                     st.sampled_from(VALUES))


class Hang(Exception):
    """A reader ran past its time; not an OSError, which main would catch."""


@contextmanager
def _within(seconds):
    """Raise Hang in the block once it has run for seconds."""
    def stop(*_):
        raise Hang(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _commands_answer(doc, *commands, good=None):
    """Run each command on doc, written to the file FILE names in its argv
    (and good, if given, to the file GOOD names)."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {"FILE": Path(tmp) / "mutant.json", "GOOD": Path(tmp) / "good.json"}
        files["FILE"].write_text(json.dumps(doc))
        files["GOOD"].write_text(json.dumps(good))
        for argv in commands:
            err = io.StringIO()
            with _within(5), redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([str(files.get(a, a)) for a in argv])
            err = err.getvalue()
            if code == 2:
                assert err.startswith("error:") and err.count("\n") == 1, (argv, doc, err)
            else:
                # iso answers 1 for trees that differ
                assert code in (0, 1) and err == "", (argv, doc, code, err)


def _reader_answers(from_json, doc):
    try:
        with _within(5):
            from_json(doc)
    except PadicTreesError:
        pass


_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@_SETTINGS
@given(_mutants(cusp_system(3).to_json()))
def test_mutated_system(doc):
    _commands_answer(doc, ["naive", "FILE", "--depth", "2"])


@_SETTINGS
@given(_mutants(zpn_datum(1, 3).to_json()))
def test_mutated_datum(doc):
    _commands_answer(doc, ["expand", "FILE", "--p", "3", "--depth", "2"],
                     ["poincare", "--datum", "FILE"])


_TREE = naive_tree(cusp_system(3), 2).to_json()


@_SETTINGS
@given(_mutants(_TREE))
def test_mutated_tree(doc):
    _commands_answer(doc, ["iso", "FILE", "GOOD"], ["dot", "FILE", "--labels"], good=_TREE)


@_SETTINGS
@given(_mutants(realize(y_datum(1, m=0), 3, p=3).to_json()))
def test_mutated_cloud(doc):
    _reader_answers(WitnessCloud.from_json, doc)


@_SETTINGS
@given(_mutants(datum_poincare(cusp_datum(3), 3).to_json()))
def test_mutated_series(doc):
    _reader_answers(RationalGF.from_json, doc)


def test_huge_modulus_in_a_domain_cell():
    # the generating function of a modulus-10^30 domain was divided out one
    # exponent unit at a time
    doc = y_datum(linear([1], 1), m=1).to_json()
    doc["domain"]["cells"][0]["cong"][0]["rho"] = 10**30
    _commands_answer(doc, ["poincare", "--datum", "FILE"],
                     ["expand", "FILE", "--p", "3", "--depth", "2", "--param", "0"])
    _reader_answers(GammaCell.from_json, doc["domain"]["cells"][0])


def test_moduli_merged_into_a_summed_cell():
    # each modulus is small, but a bone piece meets the domain cell in their
    # lcm, 9967 * 9973, which cell_gf divided out one exponent unit at a time
    doc = y_datum(linear([1], 1), m=1).to_json()
    doc["domain"]["cells"][0]["cong"][0]["rho"] = 9973
    for br in doc["bone_branches"]:
        br["piece"]["cong"][0]["rho"] = 9967
    _commands_answer(doc, ["poincare", "--datum", "FILE"])


def test_huge_bound_in_a_two_cell_set():
    # the disjointness check of two m = 2 cells sampled a box as wide as
    # their bound constants
    far, near = cell([(10**30, INFINITY), (0, INFINITY)]), cell([(0, 0), (0, INFINITY)])
    domain = {"cells": [far.to_json(), near.to_json()], "m": 2}
    _reader_answers(GammaSet.from_json, domain)
    doc = y_datum(linear([1, 0], 1), m=2).to_json()
    doc["domain"] = domain
    _commands_answer(doc, ["poincare", "--datum", "FILE"])
