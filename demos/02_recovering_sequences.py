"""
Recovering a blow-up sequence from its intersection tensor
==========================================================

The tensor alone remembers the whole sequence.  A component is *final*
when its mixed products with every neighbour follow the rigid sign
pattern of a last blow-up; contracting it yields the tensor of the
shorter sequence, and the contracted component's degree and proximities
can be read off numerically.  Iterating recovers the forest.
"""

from blowups import (
    contract,
    final_set,
    forest_isomorphic,
    random_forest,
    recover_sequence,
    tensor_from_forest,
)

forest = random_forest(seed=20_26, dimension=3, size=6, max_degree=3)
print("original forest (degree, proximate to):")
for i, point in enumerate(forest.points, 1):
    print(f"  point {i}: degree {point.degree}, proximate to {sorted(point.proximate_to)}")

tensor = tensor_from_forest(forest)
print(f"\ntensor has {len(tensor.entries)} nonzero entries on {tensor.size} components")

# Contract one final component by hand and watch the numbers.
current = tensor
while current.size:
    finals = sorted(final_set(current))
    chosen = finals[0]
    smaller, step = contract(current, chosen)
    print(
        f"stage with {current.size} components: finals {finals}, "
        f"contracted {chosen} (degree {step.degree}, was proximate to {list(step.proximate_to_current)})"
    )
    current = smaller

# recover_sequence packages the same loop and rebuilds the forest.
recovered, trace = recover_sequence(tensor)
print("\ncontraction order over original indices:", trace.original_order())
print("recovered equals a relabelling of the original:",
      forest_isomorphic(forest, recovered) is not None)
