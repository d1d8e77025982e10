"""End-to-end generation benchmark for the SynCircuit reproduction.

``python3 genbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload (see :mod:`genbench.workloads`) in a
pinned child process and prints its metrics, one per line with its
unit, followed by one JSON object on the last line.  The program is
driven only through public calls: ``Session.fit`` / ``Session.generate``
for the timed work, and ``repro.synth.synthesize``,
``repro.hdl.generate_verilog`` / ``parse_verilog``,
``repro.lint.lint_graph`` and ``repro.ir.validate`` for the output check.
"""
