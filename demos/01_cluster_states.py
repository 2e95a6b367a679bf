"""Cluster states and their stabilizers.

A cluster state on a graph is the joint +1 eigenstate of one stabilizer
K_i = X_i (x) Z_neighbors per vertex. This demo builds a few small
clusters, checks the eigenvalue condition, and cross-checks the two
constructions (entangling circuit vs projector product).
"""

import numpy as np

from clusterfid import (
    Graph,
    build_cluster_state,
    cluster_state_projector_product,
    expectation,
    stabilizer,
)

# %% a five-qubit chain
chain = Graph.chain(5)
rho = build_cluster_state(chain)
print("five-qubit chain cluster state")
print("  purity Tr(rho^2) =", np.trace(rho @ rho).real)
for i in range(5):
    k = stabilizer(chain, i)
    print(f"  <K_{i}> = {expectation(rho, k.matrix()).real:+.12f}   K_{i} = {k}")

# %% the two constructions agree entrywise
alt = cluster_state_projector_product(chain)
print("max |circuit - projector product| =", np.max(np.abs(rho - alt)))

# %% a ring and a star behave the same way
for name, g in [
    ("4-ring", Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])),
    ("5-star", Graph.from_edges(5, [(0, i) for i in range(1, 5)])),
]:
    rho = build_cluster_state(g)
    vals = [expectation(rho, stabilizer(g, i).matrix()).real for i in range(g.num_vertices)]
    print(f"{name}: stabilizer expectations {np.round(vals, 12)}")

# %% stabilizers commute pairwise, so the +1 eigenspace is consistent
g = Graph.chain(4)
ks = [stabilizer(g, i).matrix() for i in range(4)]
worst = max(
    np.max(np.abs(a @ b - b @ a)) for i, a in enumerate(ks) for b in ks[i + 1 :]
)
print("max pairwise stabilizer commutator:", worst)
