import collections
import datetime
import enum
import io
import json
import math
import re
import struct
import uuid
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splrsdp import fileio
from splrsdp.chordal_conversion import convert, convert_problem
from splrsdp.cli import run
from splrsdp.graph_core import Graph
from splrsdp.instances import (gen_bqp_relaxation, gen_lb_tree,
                               gen_min_bisection, gen_phi_witness, gen_simex)
from splrsdp.solver import SolveStats

from conftest import random_splr_problem, random_valid_td


def _rt(d):
    # force a real trip through text
    return json.loads(json.dumps(d))


def test_problem_roundtrip_exact():
    rng = np.random.default_rng(0)
    probs = [
        gen_simex(9, rng.normal(size=9) + 2.0),
        gen_min_bisection(Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])),
        gen_bqp_relaxation(np.eye(3), np.ones(3), np.ones((1, 3)), np.ones(1)),
        gen_lb_tree(1),
    ]
    for p in probs:
        q = fileio.problem_from_dict(_rt(fileio.problem_to_dict(p)))
        assert q.n == p.n and q.ell == p.ell and q.m == p.m
        assert q.pattern.edges == p.pattern.edges
        assert np.array_equal(q.factor, p.factor)
        assert q.objective.sparse.entries == p.objective.sparse.entries
        assert np.array_equal(q.objective.core, p.objective.core)
        for a, b in zip(p.constraints, q.constraints):
            assert a.sparse.entries == b.sparse.entries
            assert np.array_equal(a.core, b.core)
            assert a.lower == b.lower and a.upper == b.upper


def test_problem_infinite_bounds_travel_as_null():
    p = gen_bqp_relaxation(np.eye(2), np.zeros(2))  # has one-sided rows
    d = fileio.problem_to_dict(p)
    uppers = [c["upper"] for c in d["constraints"]]
    assert None in uppers
    q = fileio.problem_from_dict(_rt(d))
    assert any(np.isinf(c.upper) for c in q.constraints)
    assert all(np.isfinite(c.lower) for c in q.constraints)


def test_problem_with_a_nan_bound_is_refused_before_writing(tmp_path):
    p = gen_simex(5)
    p.constraints[0] = replace(p.constraints[0], lower=float("nan"))
    path = tmp_path / "p.json"
    with pytest.raises(ValueError, match="constraint 1 has a NaN bound"):
        fileio.save(fileio.problem_to_dict(p), str(path))
    assert not path.exists()


def test_problem_schema_and_m_guards():
    with pytest.raises(ValueError):
        fileio.problem_from_dict({"schema": "nope"})
    d = fileio.problem_to_dict(gen_simex(4))
    d["m"] = 99
    with pytest.raises(ValueError):
        fileio.problem_from_dict(d)


def test_problem_dict_roundtrip_is_identity():
    rng = np.random.default_rng(3)
    probs = [
        gen_simex(7, rng.normal(size=7) + 2.0),
        gen_min_bisection(Graph.from_edges(6, [(1, 2), (2, 3), (3, 6), (1, 5),
                                                (4, 5)])),
        gen_bqp_relaxation(np.eye(3), np.ones(3), np.ones((1, 3)), np.ones(1),
                           binary_set=(1, 2)),
        gen_lb_tree(2),
        random_splr_problem(rng, 9, 0),
        random_splr_problem(rng, 9, 2),
    ]
    for p in probs:
        d = _rt(fileio.problem_to_dict(p))
        assert fileio.problem_to_dict(fileio.problem_from_dict(d)) == d


def test_pattern_edges_are_checked_on_load():
    # one broken edge added to the output of `gen simex -n 5`
    for edge, match in (([0, 9], r"edge \[0, 9\] outside 1\.\.5"),
                        ([3, 3], r"edge \[3, 3\] is a self-loop"),
                        ([2, 1.5], r"edge \[2, 1\.5\] has a non-integer"),
                        ([1, 2, 3], "pairs"), (["x", 1], "pairs")):
        d = _rt(fileio.problem_to_dict(gen_simex(5)))
        d["pattern_edges"].append(edge)
        with pytest.raises(ValueError, match=match):
            fileio.problem_from_dict(d)
    # reversed and float-valued edges load as (min, max) Python ints
    d["pattern_edges"] = [[4, 2], [1.0, 2]]
    edges = fileio.problem_from_dict(d).pattern.edges
    assert edges == {(2, 4), (1, 2)}
    assert all(type(v) is int for e in edges for v in e)


@pytest.mark.parametrize("argv", [["simex", "-n", "7"],
                                  ["minbisect", "-n", "9", "--seed", "3"],
                                  ["bqp", "-n", "6", "--eq", "2"],
                                  ["lb-tree", "--ell", "2"],
                                  ["lb-padded", "--sigma", "2"]])
def test_generated_problems_round_trip_unchanged(tmp_path, argv):
    path = tmp_path / "p.json"
    assert run(["gen"] + argv + ["--out", str(path)]) == 0
    d = fileio.load(str(path))
    assert fileio.problem_to_dict(fileio.problem_from_dict(d)) == d


def test_problem_rows_sum_repeated_entries_in_file_order():
    d = fileio.problem_to_dict(gen_simex(4))
    d["pattern_edges"] = [[1, 3], [2, 4]]
    d["objective"]["sparse_entries"] = [[3, 1, 0.5], [2, 2, -0.0],
                                        [1, 3, 0.25], [2.0, 4, 1.0]]
    sp = fileio.problem_from_dict(d).objective.sparse
    # keys in order of first entry; -0.0 comes out as 0.0 + -0.0 = 0.0
    assert list(sp.entries.items()) == [((1, 3), 0.75), ((2, 2), 0.0),
                                        ((2, 4), 1.0)]
    assert all(type(i) is int and type(j) is int for i, j in sp.entries)
    assert str(sp.entries[(2, 2)]) == "0.0"


@pytest.mark.parametrize("where", ["objective", "constraint"])
def test_problem_rows_reject_bad_entries(where):
    def broken(entry=None, core=None):
        d = fileio.problem_to_dict(gen_lb_tree(1))
        row = d["objective"] if where == "objective" else d["constraints"][-1]
        if entry is not None:
            row["sparse_entries"] = row["sparse_entries"] + [entry]
        if core is not None:
            row["core"] = core
        return d

    n = gen_lb_tree(1).n
    for entry, match in (([0, 1, 1.0], "outside 1..%d" % n),
                         ([1, n + 1, 1.0], "outside 1..%d" % n),
                         ([2.5, 1, 1.0], "non-integer"),
                         (["x", 1, 1.0], "triples"),
                         ([1, 2], "triples")):
        with pytest.raises(ValueError, match=match):
            fileio.problem_from_dict(broken(entry=entry))
    for core in ([[1.0, 2.0]], [[1.0], [2.0]], [[1.0, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError):
            fileio.problem_from_dict(broken(core=core))


def test_td_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g, td = random_valid_td(rng, int(rng.integers(1, 12)))
        d = _rt(fileio.td_to_dict(td))
        back = fileio.td_from_dict(d)
        assert set(back.nodes) == set(td.nodes)
        assert back.edges == td.edges
        assert back.bags == td.bags
        assert back.root == td.root


def test_extended_roundtrip_rebuilds_identical_data():
    for p in (gen_simex(7),
              gen_min_bisection(Graph.from_edges(6, [(1, 2), (2, 3), (3, 4),
                                                     (4, 5), (5, 6), (1, 6)]))):
        ext, bs, _ = convert_problem(p)
        back = fileio.extended_from_dict(_rt(fileio.extended_to_dict(ext)))
        for name in ("bag_verts", "bag_sizes", "held", "owner"):
            assert np.array_equal(getattr(back.pattern, name),
                                  getattr(ext.pattern, name))
        assert back.pattern.td.bags == ext.pattern.td.bags
        for t in ext.a_mats:
            assert np.array_equal(back.a_mats[t], ext.a_mats[t])
        # the rebuilt extension drives the same block problem
        bs2 = convert(back)
        assert bs2.blocks == bs.blocks
        assert np.array_equal(bs2.bounds, bs.bounds)


def test_slice_roundtrip():
    sl = gen_phi_witness(2)
    back = fileio.slice_from_dict(_rt(fileio.slice_to_dict(sl)))
    assert len(back.mats) == len(sl.mats)
    for A, B in zip(sl.mats, back.mats):
        assert np.array_equal(A, B)
    assert np.array_equal(back.point, sl.point)
    assert np.array_equal(back.rhs, sl.rhs)


def test_solution_roundtrip_with_stats_and_problem():
    p = gen_simex(6)
    ext, bs, _ = convert_problem(p)
    blocks = {t: np.eye(len(bs.blocks[t])) for t in bs.blocks}
    st = SolveStats(iterations=12, primal_residual=1e-9, dual_residual=2e-9,
                    objective=0.5, block_ranks={t: 1 for t in blocks},
                    rho=2.0, converged=True, aa_accepted=9, aa_rejected=2)
    d = _rt(fileio.solution_to_dict(blocks, st, extended=ext))
    back, stats, ext2 = fileio.solution_from_dict(d)
    assert set(back) == set(blocks)
    for t in blocks:
        assert np.array_equal(back[t], blocks[t])
    assert stats["iterations"] == 12 and stats["converged"] is True
    assert stats["aa_accepted"] == 9 and stats["aa_rejected"] == 2
    assert ext2 is not None
    assert np.array_equal(ext2.pattern.bag_verts, ext.pattern.bag_verts)
    assert np.array_equal(ext2.pattern.bag_sizes, ext.pattern.bag_sizes)


def test_dump_is_deterministic_and_rejects_nan():
    d = fileio.problem_to_dict(gen_simex(5))
    buf1, buf2 = io.StringIO(), io.StringIO()
    fileio.dump(d, buf1)
    fileio.dump(d, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    bad = fileio.problem_to_dict(gen_simex(3))
    bad["factor"][0][0] = float("nan")
    with pytest.raises(ValueError):
        fileio.dump(bad, io.StringIO())


# the writer's inputs: JSON trees of every kind of value, floats subnormal,
# signed zero, below 1e-4 and from 1e16 up included, strings of any
# character but a lone surrogate, which orjson refuses
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -0.0, 0.0, 1e-5, -8.40255384132908e-05, 8.710670930064717e-07,
     1e16, -1.2345e22, 1.7976931348623157e308])
_TREES = st.recursive(
    _FLOATS | st.integers(-2 ** 63, 2 ** 63 - 1) | st.booleans() | st.none()
    | _TEXT,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(_TEXT, kids, max_size=4), max_leaves=40)
# one line of indented JSON holding a number, after an optional key
_NUMBER_LINE = re.compile(r'(\s*(?:".*": )?)([-+.0-9eE]+)(,?)')


def _dumped(d):
    buf = io.StringIO()
    fileio.dump(d, buf)
    return buf.getvalue()


def _assert_same(a, b):
    """a and b are equal JSON values of equal types, floats bitwise."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _assert_same(a[k], b[k])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b), (a, b)
    else:
        assert a == b


@given(st.dictionaries(_TEXT, _TREES, max_size=6))
def test_dump_keeps_the_stdlib_layout_and_every_value(d):
    text = _dumped(d)
    _assert_same(json.loads(text), d)
    old = json.dumps(d, indent=2, sort_keys=True) + "\n"
    assert text.isascii()
    new_lines, old_lines = text.split("\n"), old.split("\n")
    assert len(new_lines) == len(old_lines)
    for a, b in zip(new_lines, old_lines):
        if a != b:  # only a float's spelling may differ
            ma, mb = _NUMBER_LINE.fullmatch(a), _NUMBER_LINE.fullmatch(b)
            assert ma and mb, (a, b)
            assert ma.group(1, 3) == mb.group(1, 3)
            assert re.search("[.eE]", ma.group(2) + mb.group(2))
            _assert_same(float(ma.group(2)), float(mb.group(2)))


def test_dump_spells_floats_in_shortest_round_trip_form():
    text = _dumped({"a": [8.710670930064717e-07, -8.40255384132908e-05,
                          1e16, 0.5]})
    assert text == ('{\n  "a": [\n    8.710670930064717e-7,\n'
                    '    -0.0000840255384132908,\n    1e16,\n    0.5\n'
                    '  ]\n}\n')


def test_dump_writes_a_finite_list_whose_sum_overflows():
    d = {"a": [1e308, 1e308], "b": [2 ** 63 - 1, 1e308, 1e308]}
    assert json.loads(_dumped(d)) == d


NONFINITE = {
    "top level": math.nan,
    "nested list": {"a": [[1.0, 2.0], [3.0, [4.0, math.inf]]]},
    "dict value": {"a": {"b": -math.inf}},
    "tuple": {"a": (1.0, math.nan)},
    "numpy.float64": {"a": [1.0, np.float64("nan")]},
    "after a huge int": {"a": [10 ** 400, math.inf]},
    "after a string": {"a": ["x", math.nan]},
}


@pytest.mark.parametrize("d", NONFINITE.values(), ids=NONFINITE)
def test_dump_and_save_refuse_a_nan_or_infinity(tmp_path, d):
    words = r"^Out of range float values are not JSON compliant: -?(nan|inf)$"
    buf = io.StringIO()
    with pytest.raises(ValueError, match=words):
        fileio.dump(d, buf)
    assert buf.getvalue() == ""
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match=words):
        fileio.save(d, str(path))
    assert not path.exists()


def test_solution_stats_refuse_what_the_writer_refuses():
    d = fileio.solution_to_dict({1: np.eye(2)}, extended=convert_problem(
        gen_simex(3))[0])
    d["stats"] = {"history": [[1.0, math.inf]]}
    with pytest.raises(ValueError, match="^solution stats: Out of range"
                       " float values are not JSON compliant: inf$"):
        fileio.solution_from_dict(d)


def test_numpy_float64_is_written_as_its_float(tmp_path):
    d = {"a": np.float64(1e-7), "b": [np.float64(0.1), 2.5]}
    path = tmp_path / "out.json"
    fileio.save(d, str(path))
    back = fileio.load(str(path))
    _assert_same(back, {"a": 1e-7, "b": [0.1, 2.5]})


class _Colour(enum.Enum):
    RED = 1


class _Level(enum.IntEnum):
    HIGH = 2


_Pair = collections.namedtuple("_Pair", "x y")


def test_subclasses_and_escapes_are_written_as_the_stdlib_wrote_them():
    d = collections.OrderedDict(
        z=_Level.HIGH, y=_Pair(1, [2.5]), x=type("S", (str,), {})("s"),
        w="caf\u00e9 \x7f \U0001f600 \x00\t\"\\")
    d["\u00e9"] = True
    assert _dumped(d) == json.dumps(d, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    object(), {1, 2}, b"x", datetime.date(2020, 1, 1), uuid.UUID(int=1),
    _Colour.RED, SolveStats(iterations=1, primal_residual=0.0,
                            dual_residual=0.0, objective=0.0, block_ranks={},
                            rho=1.0, converged=True),
    np.float32(1.0), np.int64(1), np.array([1.0])],
    ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("where", ["value", "list"])
def test_a_type_the_stdlib_refused_still_raises_type_error(value, where):
    d = {"a": value} if where == "value" else {"a": [1.0, value]}
    with pytest.raises(TypeError):
        json.dumps(d)
    with pytest.raises(TypeError):
        fileio.dump(d, io.StringIO())
