"""Metamorphic relations of `setopt solve` that rest on the cut's tie rules.

Each relation changes a table document in a way that leaves the problem the
same set-valued problem, and requires `setopt solve` to print the same
bytes.  Reversing the dual generators swaps the two scores the staircase
cut sorts by; inserting into every cloud a copy of one of its points gives
the cut equal points to drop.  Both run on every shipped fixture written
out as a table document and on random tables with one or two generators.
"""

import copy
import json

import numpy as np
import pytest

from setopt import build_problem, fixtures, to_document
from setopt.cli import main
from setopt.sampling import random_problem


def _table_document(prob) -> dict:
    """prob's stored clouds as a table document, with its cone and tolerances."""
    doc = to_document(prob)
    points = prob.grid.points.tolist()
    doc["domain"] = {"points": points}
    doc["map"] = {"kind": "table", "parameters": {
        "points": points, "clouds": [prob.cloud(i).tolist() for i in range(len(points))]}}
    return doc


def _documents() -> list:
    docs = [_table_document(fixtures.build(name)) for name in sorted(fixtures.FIXTURES)]
    rng = np.random.default_rng(29)
    while len(docs) < len(fixtures.FIXTURES) + 32:
        prob = random_problem(rng)
        if len(prob.cone.dual_generators) <= 2:
            docs.append(_table_document(prob))
    return docs


DOCUMENTS = _documents()


def _solve_output(doc, tmp_path, capsys) -> tuple:
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def _reversed_generators(doc, rng) -> dict:
    doc = copy.deepcopy(doc)
    doc["cone"]["dual_generators"] = doc["cone"]["dual_generators"][::-1]
    return doc


def _one_point_repeated(doc, rng) -> dict:
    doc = copy.deepcopy(doc)
    for cloud in doc["map"]["parameters"]["clouds"]:
        point = cloud[int(rng.integers(len(cloud)))]
        cloud.insert(int(rng.integers(len(cloud) + 1)), list(point))
    return doc


@pytest.mark.parametrize("relation", [_reversed_generators, _one_point_repeated])
@pytest.mark.parametrize("index", range(len(DOCUMENTS)))
def test_solve_prints_the_same_bytes(relation, index, tmp_path, capsys):
    doc = DOCUMENTS[index]
    want = _solve_output(doc, tmp_path, capsys)
    assert want[0] == 0, want
    got = _solve_output(relation(doc, np.random.default_rng(index)), tmp_path, capsys)
    assert got == want
