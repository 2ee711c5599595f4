"""One line that pins what the canonical search does on a seeded corpus.

Run it from the root of a checkout:

    PYTHONPATH=src python tests/_search_digest.py

It prints the number of structures searched, the number of ``_refine``
calls, the number of automorphisms the searches kept, and a SHA-256 over
every search's labelling, data and automorphisms.  Two checkouts that print
the same line ran the same search: the same nodes, the same leaves in the
same order and the same pruning.  ``_refine`` is counted by replacing
``blowups.equivalence._refine`` with a counting wrapper, so the count does
not depend on the function's parameters, and put back when the run ends,
so ``tests/test_digests.py`` can call :func:`main` to pin the line.  The
corpus:

- random forest ``i`` at dimension ``2 + i % 3``, ``i % 9`` points and
  seed ``i``, for ``i < 300``, as a forest, as its tensor, as a
  ``perturb``ed tensor and, when it has points, as a random block graph;
- k disjoint copies of four small shapes without twins, k 1-15, as
  forests and as tensors;
- stars with 8, 20 and 40 leaves, as forests and as tensors.

The file name starts with an underscore, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _oracles import perturb, random_partition  # noqa: E402

from blowups import ProximityForest, random_forest, tensor_from_forest  # noqa: E402
from blowups import equivalence  # noqa: E402
from blowups.equivalence import _DigraphStructure, _TensorStructure  # noqa: E402

RANDOM_FORESTS = 300
SHAPES = (
    ProximityForest.make(2, (1, []), (1, [1])),
    ProximityForest.make(2, (1, []), (1, [1]), (1, [1])),
    ProximityForest.make(2, (1, []), (1, [1]), (2, [2])),
    ProximityForest.make(3, (1, []), (1, []), (1, [1, 2])),
)
COPIES = range(1, 16)
STAR_LEAVES = (8, 20, 40)


def disjoint_copies(forest: ProximityForest, copies: int) -> ProximityForest:
    """``copies`` disjoint copies of ``forest``, one after another, as ``tests/test_equivalence.py`` builds them.

    Defined here, not imported, so that the script runs unchanged in an older checkout.
    """
    m = len(forest)
    return ProximityForest.make(
        forest.dimension,
        *[(p.degree, [j + k * m for j in p.proximate_to]) for k in range(copies) for p in forest.points],
    )


def structures():
    for i in range(RANDOM_FORESTS):
        rng = random.Random(i)
        forest = random_forest(i, 2 + i % 3, i % 9, 2)
        tensor = tensor_from_forest(forest)
        yield _DigraphStructure.of_forest(forest)
        yield _TensorStructure(tensor)
        yield _TensorStructure(perturb(tensor, rng.choice(["entry", "negate", "isolated", "diagonal"]), rng))
        if len(forest):
            yield _DigraphStructure.of_blocks(forest, random_partition(len(forest), rng))
    symmetric = [disjoint_copies(shape, k) for shape in SHAPES for k in COPIES]
    symmetric += [ProximityForest.make(2, (1, []), *[(1, [1])] * leaves) for leaves in STAR_LEAVES]
    for forest in symmetric:
        yield _DigraphStructure.of_forest(forest)
        yield _TensorStructure(tensor_from_forest(forest))


def main() -> None:
    calls = [0]
    refine = equivalence._refine

    def counting(*args):
        calls[0] += 1
        return refine(*args)

    equivalence._refine = counting
    sha, count, kept = hashlib.sha256(), 0, 0
    try:
        for struct in structures():
            outcome = equivalence._search(struct)
            automorphisms = [sorted(a.items()) for a in outcome.automorphisms]
            sha.update(repr((outcome.labels, outcome.data, automorphisms)).encode() + b"\n")
            count += 1
            kept += len(automorphisms)
    finally:
        equivalence._refine = refine
    print(f"{count} structures, {calls[0]} refinements, {kept} automorphisms, {sha.hexdigest()}")


if __name__ == "__main__":
    main()
