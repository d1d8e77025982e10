"""Monte-Carlo tree search over swap actions (paper Section VI-B).

Each tree node holds a circuit state (an adjacency configuration reached
by swaps).  Selection uses UCB1 with the paper's exploration constant
sqrt(2).  Because the objective is the best state *encountered* rather
than a terminal value, the simulation reward is the maximum state reward
along the rollout path, and backpropagation folds that maximum into the
running means Q(S, a) -- the paper's modification of vanilla MCTS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from ..ir import CircuitGraph
from ..obs import current_recorder
from .actions import Swap, SwapIndex, apply_swap
from .cones import Cone

RewardFn = Callable[[CircuitGraph, Cone], float]

#: The paper's UCB1 exploration constant.
EXPLORATION = math.sqrt(2.0)


@dataclass
class _TreeNode:
    graph: CircuitGraph
    reward: float
    depth: int
    parent: _TreeNode | None = None
    children: dict[Swap, _TreeNode] = field(default_factory=dict)
    untried: list[Swap] = field(default_factory=list)
    visits: int = 0
    total: float = 0.0

    @property
    def q_value(self) -> float:
        return self.total / self.visits if self.visits else 0.0


@dataclass
class ConeSearchResult:
    best_graph: CircuitGraph
    best_reward: float
    initial_reward: float
    simulations: int
    rewards_seen: list[float] = field(default_factory=list)
    #: Milliseconds spent in the reward, ``apply_swap`` and
    #: ``SwapIndex.sample`` (``reward_ms`` / ``apply_swap_ms`` /
    #: ``sample_ms``); measured only while a trace recorder is active.
    split_ms: dict[str, float] = field(default_factory=dict)

    @property
    def improved(self) -> bool:
        return self.best_reward > self.initial_reward + 1e-12


class MCTSOptimizer:
    """Cone-level MCTS with UCB1 selection and max-reward backprop."""

    def __init__(
        self,
        reward_fn: RewardFn,
        num_simulations: int = 500,
        max_depth: int = 10,
        branching: int = 8,
        seed: int = 0,
    ):
        self.reward_fn = reward_fn
        self.num_simulations = num_simulations
        self.max_depth = max_depth
        self.branching = branching
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def optimize_cone(self, graph: CircuitGraph, cone: Cone) -> ConeSearchResult:
        # One persistent swap index for the whole cone search: successor
        # states inherit and patch their predecessor's cone-local edge
        # list instead of re-scanning every edge per sample call.
        index = SwapIndex([cone.register, *cone.interior])
        reward_fn, swap, sample = self.reward_fn, apply_swap, index.sample
        split: dict[str, float] = {}
        if current_recorder() is not None:
            reward_fn = _timed(reward_fn, split, "reward_ms")
            swap = _timed(swap, split, "apply_swap_ms")
            sample = _timed(sample, split, "sample_ms")
        root = self._make_node(graph, cone, 0, reward_fn, sample)
        best_graph, best_reward = root.graph, root.reward
        rewards_seen = [root.reward]

        for _ in range(self.num_simulations):
            node = root
            path = [node]
            # Selection: descend through fully expanded nodes via UCB1.
            while not node.untried and node.children and node.depth < self.max_depth:
                node = self._select_ucb1(node)
                path.append(node)
            # Expansion.
            if node.untried and node.depth < self.max_depth:
                action = node.untried.pop(
                    int(self.rng.integers(0, len(node.untried)))
                )
                child_graph = swap(node.graph, action)
                if child_graph is not None:
                    child = self._make_node(
                        child_graph, cone, node.depth + 1, reward_fn, sample
                    )
                    child.parent = node
                    node.children[action] = child
                    node = child
                    path.append(node)
            # Simulation: random rollout, tracking the max reward.
            max_reward = max(n.reward for n in path)
            rollout_graph = node.graph
            for _ in range(self.max_depth - node.depth):
                swaps = sample(rollout_graph, self.rng, 1)
                if not swaps:
                    break
                nxt = swap(rollout_graph, swaps[0])
                if nxt is None:
                    continue
                rollout_graph = nxt
                r = reward_fn(rollout_graph, cone)
                rewards_seen.append(r)
                if r > max_reward:
                    max_reward = r
                if r > best_reward:
                    best_reward, best_graph = r, rollout_graph
            # Track the best expanded state too.
            for n in path:
                rewards_seen.append(n.reward)
                if n.reward > best_reward:
                    best_reward, best_graph = n.reward, n.graph
            # Backpropagation with Reward_max.
            for n in path:
                n.visits += 1
                n.total += max_reward

        return ConeSearchResult(
            best_graph=best_graph,
            best_reward=best_reward,
            initial_reward=root.reward,
            simulations=self.num_simulations,
            rewards_seen=rewards_seen,
            split_ms=split,
        )

    # ------------------------------------------------------------------
    def _make_node(
        self,
        graph: CircuitGraph,
        cone: Cone,
        depth: int,
        reward_fn: RewardFn,
        sample: Callable[..., list[Swap]],
    ) -> _TreeNode:
        reward = reward_fn(graph, cone)
        untried = sample(graph, self.rng, self.branching)
        return _TreeNode(graph=graph, reward=reward, depth=depth, untried=untried)

    def _select_ucb1(self, node: _TreeNode) -> _TreeNode:
        log_n = math.log(max(node.visits, 1))
        best_child, best_score = None, -math.inf
        for child in node.children.values():
            if child.visits == 0:
                return child
            score = child.q_value + EXPLORATION * math.sqrt(
                log_n / child.visits
            )
            if score > best_score:
                best_score, best_child = score, child
        assert best_child is not None
        return best_child


def _timed(fn: Callable, totals: dict[str, float], name: str) -> Callable:
    """``fn`` adding its wall milliseconds to ``totals[name]``."""
    totals[name] = 0.0

    def timed(*args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            totals[name] += (perf_counter() - start) * 1e3

    return timed
