"""Seeded witness-search targets at an exact reflection distance.

Usage: python3 perfbench/targets.py SRC_DIR SEED DEPTH_A COUNT_A DEPTH_B COUNT_B

Prints a JSON list of {"type", "depth", "coords"}.  Type A targets lie in the
orbit of L(1)+e2 and type B targets in the orbit of L(0), under the default
generators inside the box |c| <= 4.  Each target is drawn uniformly from the
shell of vectors whose breadth-first distance from the start is exactly the
given depth, so every search has the same length and a path inside the box
exists by construction.

The shells are computed here with plain integer arithmetic rather than with
nikulat's search code, so a change to that code cannot change the inputs.
This runs in its own process so that its ball of up to 76,064 vectors does
not count in the peak memory of the workload's process.
"""

from __future__ import annotations

import json
import random
import sys

BOX = 4


def shell(start, roots, gram_roots, depth):
    """Sorted vectors at breadth-first distance exactly ``depth`` inside the box."""
    seen = {start}
    frontier = [start]
    for _ in range(depth):
        fresh = []
        for x in frontier:
            for r, gr in zip(roots, gram_roots):
                c = sum(a * b for a, b in zip(gr, x))
                if c == 0:
                    continue
                y = tuple(a + c * b for a, b in zip(x, r))
                if y in seen or max(map(abs, y)) > BOX:
                    continue
                seen.add(y)
                fresh.append(y)
        frontier = fresh
    return sorted(frontier)


def main(argv):
    src, seed, depth_a, count_a, depth_b, count_b = argv
    sys.path.insert(0, src)
    from nikulat.model import build_model, default_generator_table

    model, nv = build_model()
    gram = model.lambda_Y.gram
    roots = [root.coords for _, root in default_generator_table()]
    gram_roots = [tuple(sum(g * r for g, r in zip(row, root)) for row in gram) for root in roots]
    rng = random.Random(int(seed))
    out = []
    for kind, start, depth, count in (
        ("A", (nv.L(1) + nv.e2).coords, int(depth_a), int(count_a)),
        ("B", nv.L(0).coords, int(depth_b), int(count_b)),
    ):
        candidates = shell(start, roots, gram_roots, depth)
        for coords in rng.sample(candidates, count):
            out.append({"type": kind, "depth": depth, "coords": list(coords)})
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
