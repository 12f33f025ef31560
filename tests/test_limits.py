"""Search caps: every capped search refuses its cap + 1 with a CapExceeded
that names both numbers, and `analyze` leaves out a section past its cap
while the rest of the report stays."""

import signal

import pytest

from edgeideals import (Graph, analyze, build_graph, canonical_form,
                        enumerate_graphs, family, hochster_betti,
                        induced_matching_number, linear_quotient_search,
                        matching_number, path_packing_number,
                        reduced_homology_ranks, reducing_vertex, shellable,
                        shelling_bruteforce, simplicial_complex,
                        squarefree_ideal, verify_theorems, vertex_decomposable,
                        whisker, whisker_number)
from edgeideals.limits import CAPS, CapExceeded, fits


def _points(k):
    """k isolated points: k facets on k ground elements."""
    return simplicial_complex(k, [1 << v for v in range(k)])


def _star_ideal(m):
    """x0*x1, ..., x0*xm: m generators."""
    return squarefree_ideal(m + 1, [1 | 1 << i for i in range(1, m + 1)])


# (cap name, call that exceeds the cap by one)
CASES = [
    ("bitmask", lambda: build_graph(65, [])),
    ("bitmask", lambda: Graph(65, (0,) * 65).validate()),
    ("bitmask", lambda: whisker(build_graph(64, []), 1)),
    ("bitmask", lambda: family("dtree:1,63,0")),
    ("bitmask", lambda: simplicial_complex(65, [])),
    ("canonical", lambda: canonical_form(build_graph(9, []))),
    ("canonical", lambda: list(enumerate_graphs(9))),
    ("canonical", lambda: verify_theorems(max_n=9)),
    ("invariants", lambda: matching_number(build_graph(17, []))),
    ("invariants", lambda: induced_matching_number(build_graph(17, []))),
    ("invariants", lambda: path_packing_number(build_graph(17, []))),
    ("invariants", lambda: whisker_number(build_graph(17, []))),
    ("vertex_decomposition", lambda: vertex_decomposable(build_graph(17, []))),
    ("subset_homology", lambda: hochster_betti(squarefree_ideal(13, [0b11]))),
    ("subset_homology", lambda: reducing_vertex(build_graph(13, []))),
    ("homology", lambda: reduced_homology_ranks(_points(25))),
    ("shelling", lambda: shellable(_points(25))),
    ("shelling_bruteforce", lambda: shelling_bruteforce(_points(13))),
    ("linear_quotients", lambda: linear_quotient_search(_star_ideal(41))),
]


def test_every_cap_is_exercised():
    assert {name for name, _ in CASES} == set(CAPS)


@pytest.mark.parametrize("name, call", CASES,
                         ids=[f"{name}-{k}" for k, (name, _) in enumerate(CASES)])
def test_capped_search_refuses_cap_plus_one(name, call):
    cap = CAPS[name][0]
    assert fits(name, cap) and not fits(name, cap + 1)
    with pytest.raises(CapExceeded) as exc:
        call()
    assert (exc.value.name, exc.value.cap, exc.value.value) == (name, cap, cap + 1)
    message = str(exc.value)
    assert str(cap) in message and str(cap + 1) in message and name in message


def test_analyze_complete_12_keeps_the_report_past_the_generator_cap():
    report = analyze(family("complete:12"))
    assert (report["reg"], report["pd"]) == (1, 11)
    assert report["betti"] and report["cover_ideal"]
    assert report["vertex_decomposable"] is True
    assert "edge_ideal_linear_quotients" not in report


def test_analyze_complete_13_leaves_out_the_homology_sections():
    report = analyze(family("complete:13"))
    for key in ("betti", "reg", "pd", "cover_ideal", "edge_ideal_linear_quotients"):
        assert key not in report
    assert report["invariants"]["matching"] == 6
    assert report["vertex_decomposable"] is True


def test_analyze_decides_linear_quotients_by_the_complement():
    # the 12-vertex 3-tree has no linear-quotient order; proving that by
    # search never ended, so a hang fails here instead of stalling the suite
    def give_up(signum, frame):
        raise TimeoutError("analyze(dtree:3,8,0) did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(60)
    try:
        report = analyze(family("dtree:3,8,0"))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert report["complement_chordal"] is False
    assert report["reg"] > 1
    assert report["edge_ideal_linear_quotients"] is None


def test_analyze_path_60_keeps_only_the_cheap_sections():
    report = analyze(family("path:60"))
    for key in ("canonical", "invariants", "betti", "vertex_decomposable", "shellable"):
        assert key not in report
    assert report["chordal"] is True
    assert report["dtree"] == 1
