"""
The frontier as an online regression tree
=========================================

Labeled experience samples drive variance-reduction splits; unlabeled
frontier candidates are routed by the same rules. Each timestep only one
representative per leaf is scored, so the number of value evaluations is
bounded by the leaf count, not the frontier size.
"""

import numpy as np

from treecrawl import QNetwork, TreeFrontier
from treecrawl.frontier_tree import FrontierEntry, best_split

rng = np.random.default_rng(3)

# a leaf whose first feature separates the rewards perfectly
X = np.array([[0.1, 0.4], [0.2, 0.9], [0.8, 0.5], [0.9, 0.1]])
y = np.array([0.0, 0.0, 1.0, 1.0])
print("best split on a toy leaf:", best_split(X, y))

tree = TreeFrontier()
qnet = QNetwork(8, rng=rng)
frontier_added = 0
for t in range(400):
    # synthetic experience: reward correlates with two of the eight features
    x = rng.uniform(size=8)
    reward = float(rng.random() < 0.8 * x[5] + 0.2 * x[6])
    entries = [FrontierEntry(x=rng.uniform(size=8), url=f"http://d{t}.sim/p{t}-{j}",
                             parent=None)
               for j in range(5)]
    frontier_added += len(entries)
    selected, info = tree.update((x, reward), entries, "greedy", qnet, rng)
    if t in (0, 24, 99, 399):
        print(f"t={t:3d}: leaves={tree.leaf_count:3d} frontier={tree.frontier_size:5d} "
              f"evals this step={info.q_evaluations:3d} "
              f"cumulative evals={tree.q_evaluations:5d}")

print(f"\nleaf bound holds: {tree.leaf_count} <= 1 + 400")
print(f"evaluations per step stayed at the leaf count, never the frontier size "
      f"({tree.frontier_size} stored entries at the end)")

snapshot = tree.snapshot()
node = snapshot["tree"]
rules = []
while "feature" in node:
    rules.append(f"x[{node['feature']}] < {node['threshold']:.3f}")
    node = node["left"]
print("root-to-leftmost-leaf rules:", " and ".join(rules) or "(single leaf)")
