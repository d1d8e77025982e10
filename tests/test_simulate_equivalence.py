"""Differential property tests: the bit-parallel simulator must be
bit-identical to the scalar reference on random valid netlists.

Hypothesis-style seeded fuzzing without the dependency: the shared
harness (``fuzz_harness``) draws random DAG-plus-feedback netlists
(DFF-heavy, MUX-heavy, comb-only and mixed profiles) and random
stimulus with randomly *missing* inputs, and this module asserts both
backends agree cycle for cycle.  The perf test at the bottom pins the
acceptance criterion: >= 10x on a 64-cycle stimulus over the largest
bench design.
"""

import timeit

import numpy as np
import pytest
from fuzz_harness import PROFILES, random_netlist, random_stimulus

from repro.synth.netlist import Gate, Netlist
from repro.synth.simulate import (
    BACKENDS,
    BitParallelSimulator,
    simulate,
)


class TestBackendEquivalence:
    @pytest.mark.fuzz_smoke
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("seed", range(8))
    def test_random_netlists(self, profile, seed):
        netlist = random_netlist(seed, profile=profile)
        rng = np.random.default_rng(1000 + seed)
        stimulus = random_stimulus(netlist, rng, cycles=70)
        assert (
            simulate(netlist, stimulus, backend="scalar")
            == simulate(netlist, stimulus, backend="bitparallel")
        )

    @pytest.mark.fuzz_smoke
    @pytest.mark.parametrize("cycles", [0, 1, 63, 64, 65, 130])
    def test_word_block_boundaries(self, cycles):
        netlist = random_netlist(99, num_gates=40, profile="dff_heavy")
        rng = np.random.default_rng(cycles)
        stimulus = random_stimulus(netlist, rng, cycles=cycles)
        assert (
            simulate(netlist, stimulus, backend="scalar")
            == simulate(netlist, stimulus, backend="bitparallel")
        )

    def test_deep_feedback_chain(self):
        # Toggle-flop ripple counter: worst case for the fixpoint (every
        # word needs the full block-length pass count to settle).
        netlist = Netlist()
        netlist.ensure_consts()
        carry = netlist.const1
        for b in range(6):
            q = netlist.new_net()
            toggled = netlist.add_gate("XOR", q, carry)
            carry = netlist.add_gate("AND", q, carry)
            netlist.gates.append(Gate("DFF", (toggled,), q))
            netlist.add_output(f"count[{b}]", q)
        stimulus = [{} for _ in range(130)]
        scalar = simulate(netlist, stimulus, backend="scalar")
        packed = simulate(netlist, stimulus, backend="bitparallel")
        assert scalar == packed
        # And it really counts: cycle t shows t mod 64.
        from repro.synth.simulate import pack_word

        assert [pack_word(row, "count") for row in packed[:5]] == [0, 1, 2, 3, 4]

    def test_corpus_designs_equivalent(self):
        from repro.bench_designs import load_design
        from repro.synth import elaborate

        rng = np.random.default_rng(7)
        for name in ("uart_tx", "alu", "mac_unit"):
            netlist = elaborate(load_design(name), check=False)
            stimulus = random_stimulus(netlist, rng, cycles=96, drop_rate=0.0)
            assert (
                simulate(netlist, stimulus, backend="scalar")
                == simulate(netlist, stimulus, backend="bitparallel")
            ), name

    def test_unknown_backend_rejected(self):
        netlist = random_netlist(0, num_gates=5)
        with pytest.raises(ValueError, match="unknown simulation backend"):
            simulate(netlist, [{}], backend="fpga")
        assert set(BACKENDS) == {"scalar", "bitparallel"}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_combinational_loop_rejected(self, backend):
        netlist = Netlist()
        netlist.ensure_consts()
        x = netlist.new_net()
        y = netlist.new_net()
        netlist.gates.append(Gate("NOT", (y,), x))
        netlist.gates.append(Gate("NOT", (x,), y))
        netlist.add_output("y[0]", y)
        with pytest.raises(ValueError, match="combinational loop"):
            simulate(netlist, [{}], backend=backend)

    def test_comb_loop_inside_feedback_scc_rejected(self):
        # A DFF-bearing SCC that *also* contains a purely combinational
        # cycle must still be rejected by the bit-parallel planner.
        netlist = Netlist()
        netlist.ensure_consts()
        q = netlist.new_net()
        a = netlist.new_net()
        b = netlist.new_net()
        netlist.gates.append(Gate("AND", (b, q), a))
        netlist.gates.append(Gate("OR", (a, q), b))
        netlist.gates.append(Gate("DFF", (a,), q))
        netlist.add_output("y[0]", a)
        with pytest.raises(ValueError, match="combinational loop"):
            simulate(netlist, [{}], backend="bitparallel")

    def test_run_packed_matches_dict_interface(self):
        netlist = random_netlist(5, profile="dff_heavy")
        rng = np.random.default_rng(5)
        stimulus = random_stimulus(netlist, rng, cycles=80, drop_rate=0.0)
        simulator = BitParallelSimulator(netlist)
        packed_inputs = {}
        for _, net in netlist.primary_inputs:
            word = 0
            for t, cycle in enumerate(stimulus):
                if cycle.get(net):
                    word |= 1 << t
            packed_inputs[net] = word
        words = simulator.run_packed(packed_inputs, len(stimulus))
        rows = simulator.run(stimulus)
        for name, _ in netlist.primary_outputs:
            expected = 0
            for t, row in enumerate(rows):
                if row[name]:
                    expected |= 1 << t
            assert words[name] == expected


class TestAcceptanceSpeedup:
    def test_bitparallel_10x_on_largest_design(self):
        """The PR's acceptance criterion, pinned as a test: >= 10x on a
        64-cycle stimulus over the largest bench design, bit-identical
        primary outputs included."""
        from repro.bench.suites import _sim_workload

        name, netlist, stimulus = _sim_workload()
        assert len(stimulus) == 64
        scalar_out = simulate(netlist, stimulus, backend="scalar")
        packed_out = simulate(netlist, stimulus, backend="bitparallel")
        assert scalar_out == packed_out, f"backends disagree on {name}"

        scalar = min(timeit.repeat(
            lambda: simulate(netlist, stimulus, backend="scalar"),
            number=1, repeat=3,
        ))
        packed = min(timeit.repeat(
            lambda: simulate(netlist, stimulus, backend="bitparallel"),
            number=1, repeat=5,
        ))
        assert scalar >= packed * 10.0, (
            f"bit-parallel speedup on {name} is only {scalar / packed:.1f}x"
        )
