"""Cycle-accurate netlist simulation (verification substrate).

Used by the test suite to check two invariants the synthesis flow must
uphold: (1) elaboration implements the RTL operator semantics, and
(2) optimization preserves observable behaviour at the primary outputs.
Registers start at 0, matching the constant-register sweep assumption in
:mod:`repro.synth.passes`.

Two backends implement the same contract and are fuzz-tested for
bit-identical outputs (``tests/test_simulate_equivalence.py``):

``scalar``
    The reference implementation: one Python-level gate evaluation per
    gate per cycle.  Simple, obviously correct, slow.

``bitparallel``
    The production backend.  Stimulus cycles are packed into machine
    words (:data:`WORD_BITS` cycles per block, LSB = earliest cycle) and
    every gate is evaluated *word-wise* with native bitwise operations,
    so one ``AND`` processes up to 64 cycles at once.  Sequential
    feedback cannot be resolved in a single pass, so the gate dependency
    graph is split into strongly connected components: the acyclic part
    (typically the vast majority of gates) is evaluated exactly once per
    block, and only the feedback SCCs iterate word-wise to a fixpoint
    (at most ``block_length + 1`` passes, usually far fewer).  Register
    state is carried across blocks, so stimuli of any length work.
"""

from __future__ import annotations

from collections import deque

from .netlist import Netlist

#: Cycles packed per word block in the bit-parallel backend.
WORD_BITS = 64

#: Valid values for ``simulate``'s ``backend`` argument.
BACKENDS = ("bitparallel", "scalar")


def _comb_order(netlist: Netlist) -> list[int]:
    """Indices of non-DFF gates in evaluation order.

    Kahn's algorithm with a FIFO frontier: ready gates are evaluated in
    netlist order, so the evaluation sequence (and any debug trace keyed
    to it) is deterministic and stable across runs.
    """
    driver = {g.output: i for i, g in enumerate(netlist.gates)}
    comb = [i for i, g in enumerate(netlist.gates) if g.kind != "DFF"]
    pending: dict[int, int] = {}
    consumers: dict[int, list[int]] = {}
    for i in comb:
        gate = netlist.gates[i]
        count = 0
        for net in gate.inputs:
            j = driver.get(net)
            if j is not None and netlist.gates[j].kind != "DFF":
                consumers.setdefault(j, []).append(i)
                count += 1
        pending[i] = count
    order: list[int] = []
    frontier = deque(i for i in comb if pending[i] == 0)
    while frontier:
        i = frontier.popleft()
        order.append(i)
        for consumer in consumers.get(i, ()):
            pending[consumer] -= 1
            if pending[consumer] == 0:
                frontier.append(consumer)
    if len(order) != len(comb):
        raise ValueError("combinational loop in netlist")
    return order


_EVAL = {
    "NOT": lambda v: not v[0],
    "AND": lambda v: v[0] and v[1],
    "OR": lambda v: v[0] or v[1],
    "XOR": lambda v: v[0] != v[1],
    "MUX": lambda v: v[1] if v[0] else v[2],
}


def simulate(
    netlist: Netlist,
    stimulus: list[dict[int, bool]],
    backend: str = "bitparallel",
) -> list[dict[str, bool]]:
    """Run the netlist for ``len(stimulus)`` clock cycles.

    Each stimulus entry maps primary-input *net ids* to values; missing
    inputs default to 0.  Returns per-cycle primary-output values keyed by
    port name (sampled after combinational settling, before the clock
    edge).  ``backend`` selects the word-parallel production path
    (default) or the scalar reference path; both produce bit-identical
    results.
    """
    if backend == "bitparallel":
        return BitParallelSimulator(netlist).run(stimulus)
    if backend == "scalar":
        return _simulate_scalar(netlist, stimulus)
    raise ValueError(
        f"unknown simulation backend {backend!r}; expected one of {BACKENDS}"
    )


def _simulate_scalar(
    netlist: Netlist,
    stimulus: list[dict[int, bool]],
) -> list[dict[str, bool]]:
    order = _comb_order(netlist)
    state = {g.output: False for g in netlist.gates if g.kind == "DFF"}
    results: list[dict[str, bool]] = []

    for cycle_inputs in stimulus:
        values: dict[int, bool] = {netlist.const0: False, netlist.const1: True}
        for _, net in netlist.primary_inputs:
            values[net] = bool(cycle_inputs.get(net, False))
        values.update(state)
        for i in order:
            gate = netlist.gates[i]
            values[gate.output] = _EVAL[gate.kind](
                [values[n] for n in gate.inputs]
            )
        results.append(
            {name: values[net] for name, net in netlist.primary_outputs}
        )
        state = {
            g.output: values[g.inputs[0]]
            for g in netlist.gates
            if g.kind == "DFF"
        }
    return results


# ---------------------------------------------------------------------------
# Bit-parallel backend
# ---------------------------------------------------------------------------

# Opcode layout for the compiled gate program: (code, out, a, b, c).
_OP_NOT, _OP_AND, _OP_OR, _OP_XOR, _OP_MUX, _OP_DFF = range(6)
_OP_CODE = {"NOT": _OP_NOT, "AND": _OP_AND, "OR": _OP_OR,
            "XOR": _OP_XOR, "MUX": _OP_MUX, "DFF": _OP_DFF}


def _tarjan_sccs(deps: list[list[int]]) -> list[list[int]]:
    """Strongly connected components, emitted dependencies-first.

    Iterative Tarjan over the gate dependency graph (``deps[i]`` lists the
    gates whose outputs gate ``i`` reads).  Tarjan emits a component only
    after every component it depends on, which is exactly the evaluation
    order the block loop needs.
    """
    n = len(deps)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(deps[root]))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(deps[w])))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                sccs.append(component)
    return sccs


class BitParallelSimulator:
    """Compiled word-parallel simulator for one netlist.

    Compiling (SCC analysis + opcode program) is a single O(gates) pass;
    reuse the instance when driving the same netlist with many stimuli.
    ``run`` mirrors :func:`simulate`'s contract; ``run_packed`` exposes
    the word-level interface so callers that already hold packed
    stimulus words (e.g. batched cone evaluation, which shares one
    packed stimulus across many candidate netlists) skip the per-cycle
    dict layer entirely.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        gates = netlist.gates
        num_gates = len(gates)
        driver = {g.output: i for i, g in enumerate(gates)}
        sources = {netlist.const0, netlist.const1}
        sources.update(net for _, net in netlist.primary_inputs)

        deps: list[list[int]] = []
        ops: list[tuple] = []
        driver_get = driver.get
        for gate in gates:
            gate_deps = []
            for net in gate.inputs:
                j = driver_get(net)
                if j is not None:
                    gate_deps.append(j)
                elif net not in sources:
                    raise KeyError(net)
            deps.append(gate_deps)
            ins = gate.inputs
            arity = len(ins)
            ops.append((
                _OP_CODE[gate.kind],
                gate.output,
                ins[0],
                ins[1] if arity > 1 else 0,
                ins[2] if arity > 2 else 0,
            ))
        for _, net in netlist.primary_outputs:
            if net not in driver and net not in sources:
                raise KeyError(net)

        # Plan: a flat opcode program for the acyclic part, interleaved
        # with fixpoint programs for the sequential-feedback SCCs.
        # ("direct", ops) evaluates once per block; ("loop", ops, dffs)
        # iterates word-wise until the DFF output words stabilize.
        #
        # A cheap Kahn pass peels the acyclic prefix first (usually the
        # vast majority of gates, and the whole netlist for feedforward
        # pipelines); the quadratic-constant Tarjan pass only sees the
        # leftover feedback region.
        self._plan: list[tuple] = []
        pending = [len(d) for d in deps]
        consumers: list[list[int]] = [[] for _ in range(num_gates)]
        for i, gate_deps in enumerate(deps):
            for j in gate_deps:
                consumers[j].append(i)
        placed = [False] * num_gates
        frontier = deque(i for i in range(num_gates) if pending[i] == 0)
        direct: list[tuple] = []
        while frontier:
            i = frontier.popleft()
            placed[i] = True
            direct.append(ops[i])
            for consumer in consumers[i]:
                pending[consumer] -= 1
                if pending[consumer] == 0:
                    frontier.append(consumer)
        leftover = [i for i in range(num_gates) if not placed[i]]
        local_index = {i: k for k, i in enumerate(leftover)}
        local_deps = [
            [local_index[j] for j in deps[i] if not placed[j]]
            for i in leftover
        ]

        for local_component in _tarjan_sccs(local_deps):
            component = [leftover[k] for k in local_component]
            if len(component) == 1:
                i = component[0]
                if i not in deps[i]:
                    direct.append(ops[i])  # downstream of a feedback SCC
                    continue
                if gates[i].kind != "DFF":
                    raise ValueError("combinational loop in netlist")
                # A self-looped DFF is its own one-gate feedback SCC.
            members = set(component)
            comb = [i for i in component if gates[i].kind != "DFF"]
            dffs = [i for i in component if gates[i].kind == "DFF"]
            if not dffs:
                raise ValueError("combinational loop in netlist")
            # Order the SCC's combinational members topologically with
            # DFF outputs as sources; leftovers mean a comb-only cycle.
            comb_pending = {
                i: sum(
                    1 for j in deps[i]
                    if j in members and gates[j].kind != "DFF"
                )
                for i in comb
            }
            comb_consumers: dict[int, list[int]] = {}
            for i in comb:
                for j in deps[i]:
                    if j in members and gates[j].kind != "DFF":
                        comb_consumers.setdefault(j, []).append(i)
            comb_frontier = deque(i for i in comb if comb_pending[i] == 0)
            loop_ops = [ops[i] for i in dffs]
            ordered = 0
            while comb_frontier:
                i = comb_frontier.popleft()
                loop_ops.append(ops[i])
                ordered += 1
                for consumer in comb_consumers.get(i, ()):
                    comb_pending[consumer] -= 1
                    if comb_pending[consumer] == 0:
                        comb_frontier.append(consumer)
            if ordered != len(comb):
                raise ValueError("combinational loop in netlist")
            if direct:
                self._plan.append(("direct", direct))
                direct = []
            self._plan.append(("loop", loop_ops, [ops[i] for i in dffs]))
        if direct:
            self._plan.append(("direct", direct))

        self._num_nets = netlist.num_nets
        self._const1 = netlist.const1
        self._pi_nets = [net for _, net in netlist.primary_inputs]
        self._outputs = list(netlist.primary_outputs)
        self._dff_nets = [g.output for g in gates if g.kind == "DFF"]
        self._dff_pairs = [
            (g.output, g.inputs[0]) for g in gates if g.kind == "DFF"
        ]

    # ------------------------------------------------------------------
    def run(self, stimulus: list[dict[int, bool]]) -> list[dict[str, bool]]:
        """Drive ``stimulus`` and return per-cycle output dicts."""
        results: list[dict[str, bool]] = []
        outputs = self._outputs
        pi_nets = self._pi_nets
        state = {net: 0 for net in self._dff_nets}
        total = len(stimulus)
        for start in range(0, total, WORD_BITS):
            block = stimulus[start:start + WORD_BITS]
            packed = {}
            for net in pi_nets:
                word = 0
                for t, cycle_inputs in enumerate(block):
                    if cycle_inputs.get(net):
                        word |= 1 << t
                packed[net] = word
            words = self._run_block(packed, len(block), state)
            for t in range(len(block)):
                results.append(
                    {name: bool((words[net] >> t) & 1) for name, net in outputs}
                )
            for out, d in self._dff_pairs:
                state[out] = (words[d] >> (len(block) - 1)) & 1
        return results

    def run_packed(
        self,
        inputs: dict[int, int],
        num_cycles: int,
    ) -> dict[str, int]:
        """Word-level entry point: packed input words in, packed output
        words out (bit ``t`` = cycle ``t``).  Registers start at 0."""
        state = {net: 0 for net in self._dff_nets}
        out_words = {name: 0 for name, _ in self._outputs}
        for start in range(0, num_cycles, WORD_BITS):
            length = min(WORD_BITS, num_cycles - start)
            mask = (1 << length) - 1
            packed = {
                net: (inputs.get(net, 0) >> start) & mask
                for net in self._pi_nets
            }
            words = self._run_block(packed, length, state)
            for name, net in self._outputs:
                out_words[name] |= (words[net] & mask) << start
            for out, d in self._dff_pairs:
                state[out] = (words[d] >> (length - 1)) & 1
        return out_words

    # ------------------------------------------------------------------
    def _run_block(
        self,
        packed_inputs: dict[int, int],
        length: int,
        state: dict[int, int],
    ) -> list[int]:
        mask = (1 << length) - 1
        words = [0] * self._num_nets
        if self._const1 >= 0:
            words[self._const1] = mask
        for net, word in packed_inputs.items():
            words[net] = word & mask

        for step in self._plan:
            if step[0] == "direct":
                self._eval_ops(step[1], words, mask, state)
            else:
                _, loop_ops, dff_ops = step
                previous = None
                # Each pass settles at least one more cycle bit, so the
                # fixpoint arrives within length + 1 passes; the extra
                # pass detects stability.
                for _ in range(length + 2):
                    self._eval_ops(loop_ops, words, mask, state)
                    current = tuple(words[out] for _, out, *_ in dff_ops)
                    if current == previous:
                        break
                    previous = current
                else:  # pragma: no cover - mathematically unreachable
                    raise RuntimeError("feedback fixpoint did not converge")
        return words

    @staticmethod
    def _eval_ops(
        ops: list[tuple],
        words: list[int],
        mask: int,
        state: dict[int, int],
    ) -> None:
        for code, out, a, b, c in ops:
            if code == _OP_AND:
                words[out] = words[a] & words[b]
            elif code == _OP_XOR:
                words[out] = words[a] ^ words[b]
            elif code == _OP_OR:
                words[out] = words[a] | words[b]
            elif code == _OP_NOT:
                words[out] = words[a] ^ mask
            elif code == _OP_MUX:
                sel = words[a]
                words[out] = (sel & words[b]) | ((sel ^ mask) & words[c])
            else:  # DFF: shift the D word up one cycle, insert the state bit
                words[out] = ((words[a] << 1) | state[out]) & mask


def packed_stimulus_word(seed: int, key: str, num_cycles: int, salt: int = 0) -> int:
    """Deterministic random packed input word (bit ``t`` = cycle ``t``).

    One recipe shared by every consumer that drives many netlists with
    one stimulus (batched cone evaluation, the sanitizer's functional
    comparisons): the word depends only on ``(seed, key, salt)``, never
    on which candidate is being simulated.
    """
    import zlib

    import numpy as np

    sequence = np.random.SeedSequence([seed, zlib.crc32(key.encode()), salt])
    bits = np.random.default_rng(sequence).integers(
        0, 2, size=num_cycles, dtype=np.uint8
    )
    return int.from_bytes(np.packbits(bits, bitorder="little"), "little")


def pack_word(values: dict[str, bool], prefix: str) -> int:
    """Assemble an integer from output bits named ``{prefix}[b]``."""
    word = 0
    for name, bit in values.items():
        if name.startswith(prefix + "["):
            index = int(name[len(prefix) + 1:-1])
            if bit:
                word |= 1 << index
    return word


def drive_word(netlist: Netlist, prefix: str, value: int) -> dict[int, bool]:
    """Stimulus fragment setting input bits named ``{prefix}[b]``."""
    out: dict[int, bool] = {}
    for name, net in netlist.primary_inputs:
        if name.startswith(prefix + "["):
            index = int(name[len(prefix) + 1:-1])
            out[net] = bool((value >> index) & 1)
    return out
