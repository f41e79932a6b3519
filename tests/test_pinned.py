"""The benchmark's orbit checks on the first roots of each pinned case.

bench/pinned.json holds answers written by the benchmark's independent
oracle (bench/oracle.py).  The orbit-search workload checks every search
result against them; this test makes the same checks on a few roots, so a
break of the OrbitRun contract fails here as well.  The file is only read.
"""

import json
import pathlib
import random

import pytest

from markoff.cli import build_surface
from markoff.moves import GENERATOR_SETS, apply_word, parse_word
from markoff.orbits import Caps, equivalent, is_exceptional, orbit_bfs
from markoff.surfaces import Point3

PINNED = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "bench" / "pinned.json").read_text()
)


def _replays(surface, word, p, q):
    return apply_word(surface, parse_word(str(word), surface.kind), p) == q


@pytest.mark.parametrize("case", PINNED["orbit"], ids=lambda case: case["name"])
def test_pinned_orbit_answers(case):
    surface = build_surface(case["type"], tuple(case["params"]))
    roots = [Point3(*r) for r in case["roots"][:3]]
    caps = Caps(height=case["cap"])
    rng = random.Random(0)
    for gens in GENERATOR_SETS:
        component = case["component"][gens]
        for i, root in enumerate(roots):
            run = orbit_bfs(surface, gens, root, cap_height=case["cap"])
            assert len(run) == case["size"][gens][i]
            points = run.points()
            assert len(points) == len(run)
            for p in rng.sample(points, min(3, len(points))):
                assert _replays(surface, run.word_to(p), root, p)
            for j, other in enumerate(roots):
                res = equivalent(surface, gens, root, other, caps)
                assert res.equivalent == (component[i] == component[j])
                assert _replays(surface, res.word, root, other) if res.equivalent else res.exhausted
    for i, root in enumerate(roots):
        res = is_exceptional(surface, root, caps)
        assert res.found == case["exceptional"][i]
        if res.found:
            hit = apply_word(surface, res.word, root)
            assert 2 in hit or -2 in hit
        else:
            assert res.exhausted
