"""Functional correctness of elaboration, checked by netlist simulation."""

import numpy as np
import pytest

from repro.ir import GraphBuilder
from repro.synth import elaborate
from repro.synth.simulate import drive_word, pack_word, simulate

RNG = np.random.default_rng(7)


def _eval_binary(op_name: str, wa: int, wb: int, wout: int, a_val: int, b_val: int):
    """Build a one-op design, simulate it, return the output word."""
    b = GraphBuilder(f"op_{op_name}")
    a = b.input("a", wa)
    c = b.input("c", wb)
    op = getattr(b, op_name)
    if op_name in ("eq", "lt"):
        node = op(a, c)
    else:
        node = op(a, c, width=wout)
    b.output("y", node)
    netlist = elaborate(b.build())
    stim = {**drive_word(netlist, "a_0", a_val), **drive_word(netlist, "c_1", b_val)}
    out = simulate(netlist, [stim])[0]
    return pack_word(out, f"y_{node + 1}")


class TestArithmetic:
    @pytest.mark.parametrize("a,b", [(0, 0), (5, 3), (15, 1), (9, 9), (12, 7)])
    def test_add(self, a, b):
        assert _eval_binary("add", 4, 4, 4, a, b) == (a + b) % 16

    @pytest.mark.parametrize("a,b", [(0, 0), (5, 3), (3, 5), (15, 15), (8, 9)])
    def test_sub(self, a, b):
        assert _eval_binary("sub", 4, 4, 4, a, b) == (a - b) % 16

    @pytest.mark.parametrize("a,b", [(0, 7), (3, 5), (15, 15), (6, 2)])
    def test_mul(self, a, b):
        assert _eval_binary("mul", 4, 4, 8, a, b) == (a * b) % 256

    def test_add_random(self):
        for _ in range(20):
            a, b = int(RNG.integers(0, 256)), int(RNG.integers(0, 256))
            assert _eval_binary("add", 8, 8, 8, a, b) == (a + b) % 256

    def test_mixed_widths_zero_extend(self):
        # 4-bit + 2-bit at 6-bit output: b zero-extended.
        assert _eval_binary("add", 4, 2, 6, 15, 3) == 18


class TestBitwiseAndCompare:
    @pytest.mark.parametrize("op,fn", [
        ("and_", lambda a, b: a & b),
        ("or_", lambda a, b: a | b),
        ("xor", lambda a, b: a ^ b),
    ])
    def test_bitwise(self, op, fn):
        for _ in range(10):
            a, b = int(RNG.integers(0, 64)), int(RNG.integers(0, 64))
            assert _eval_binary(op, 6, 6, 6, a, b) == fn(a, b)

    @pytest.mark.parametrize("a,b", [(3, 3), (3, 4), (0, 0), (63, 62)])
    def test_eq(self, a, b):
        assert _eval_binary("eq", 6, 6, 1, a, b) == int(a == b)

    @pytest.mark.parametrize("a,b", [(3, 4), (4, 3), (0, 0), (63, 0), (31, 32)])
    def test_lt(self, a, b):
        assert _eval_binary("lt", 6, 6, 1, a, b) == int(a < b)


class TestShifts:
    @pytest.mark.parametrize("a,s", [(1, 0), (1, 3), (5, 2), (255, 1), (9, 7), (9, 9)])
    def test_shl(self, a, s):
        assert _eval_binary("shl", 8, 4, 8, a, s) == (a << s) % 256

    @pytest.mark.parametrize("a,s", [(128, 0), (128, 3), (255, 4), (9, 1), (9, 9)])
    def test_shr(self, a, s):
        assert _eval_binary("shr", 8, 4, 8, a, s) == a >> s


class TestStructural:
    def test_not_and_reduce(self):
        b = GraphBuilder("t")
        a = b.input("a", 4)
        n = b.not_(a)
        r = b.reduce_or(a)
        b.output("yn", n)
        b.output("yr", r)
        netlist = elaborate(b.build())
        out = simulate(netlist, [drive_word(netlist, "a_0", 0b0101)])[0]
        assert pack_word(out, f"yn_{3}") == 0b1010
        assert pack_word(out, f"yr_{4}") == 1

    def test_slice_and_concat(self):
        b = GraphBuilder("t")
        a = b.input("a", 8)
        s = b.slice_(a, 6, 3)     # bits [6:3]
        c = b.concat(s, s)        # {s, s}
        b.output("ys", s)
        b.output("yc", c)
        netlist = elaborate(b.build())
        out = simulate(netlist, [drive_word(netlist, "a_0", 0b01011000)])[0]
        assert pack_word(out, "ys_3") == 0b1011
        assert pack_word(out, "yc_4") == 0b10111011

    def test_mux_selects(self):
        b = GraphBuilder("t")
        s = b.input("s", 1)
        x = b.input("x", 4)
        y = b.input("y", 4)
        m = b.mux(s, x, y)
        b.output("o", m)
        netlist = elaborate(b.build())
        for sel, expect in [(1, 5), (0, 9)]:
            stim = {
                **drive_word(netlist, "s_0", sel),
                **drive_word(netlist, "x_1", 5),
                **drive_word(netlist, "y_2", 9),
            }
            out = simulate(netlist, [stim])[0]
            assert pack_word(out, f"o_{4}") == expect

    def test_wide_mux_select_reduces(self):
        # A multi-bit select behaves as (sel != 0), Verilog semantics.
        b = GraphBuilder("t")
        s = b.input("s", 3)
        x = b.input("x", 2)
        y = b.input("y", 2)
        b.output("o", b.mux(s, x, y))
        netlist = elaborate(b.build())
        for sel, expect in [(0, 2), (4, 1), (7, 1)]:
            stim = {
                **drive_word(netlist, "s_0", sel),
                **drive_word(netlist, "x_1", 1),
                **drive_word(netlist, "y_2", 2),
            }
            out = simulate(netlist, [stim])[0]
            assert pack_word(out, "o_4") == expect


class TestSequential:
    def test_counter_counts(self):
        b = GraphBuilder("counter")
        one = b.const(1, 4)
        count = b.reg("count", 4)
        b.drive_reg(count, b.add(count, one, width=4))
        b.output("value", count)
        netlist = elaborate(b.build())
        outs = simulate(netlist, [{}] * 6)
        values = [pack_word(o, "value_3") for o in outs]
        assert values == [0, 1, 2, 3, 4, 5]

    def test_register_delays_by_one_cycle(self):
        b = GraphBuilder("dff")
        d = b.input("d", 1)
        r = b.reg("r", 1)
        b.drive_reg(r, d)
        b.output("q", r)
        netlist = elaborate(b.build())
        stim = [drive_word(netlist, "d_0", v) for v in (1, 0, 1, 1)]
        outs = simulate(netlist, stim)
        assert [pack_word(o, "q_2") for o in outs] == [0, 1, 0, 1]

    def test_dff_origin_recorded(self):
        b = GraphBuilder("t")
        r = b.reg("r", 3)
        b.drive_reg(r, b.not_(r))
        b.output("q", r)
        netlist = elaborate(b.build())
        origins = sorted(netlist.dff_origin.values())
        assert origins == [(0, 0), (0, 1), (0, 2)]

    def test_netlist_check_passes(self):
        b = GraphBuilder("t")
        a = b.input("a", 4)
        c = b.input("c", 4)
        r = b.reg("r", 4)
        b.drive_reg(r, b.add(a, c, width=4))
        b.output("y", b.xor(r, a))
        netlist = elaborate(b.build())
        netlist.check()
        assert netlist.num_dffs == 4

    def test_check_flag_gates_the_netlist_audit(self, monkeypatch):
        from repro.synth.netlist import Netlist

        audits = []
        original = Netlist.check

        def spy(netlist):
            audits.append(netlist)
            original(netlist)

        monkeypatch.setattr(Netlist, "check", spy)
        b = GraphBuilder("t")
        r = b.reg("r", 4)
        b.drive_reg(r, b.add(b.input("a", 4), r, width=4))
        b.output("y", r)
        graph = b.build()
        elaborate(graph, check=False)
        assert audits == []
        netlist = elaborate(graph)
        assert audits == [netlist]
