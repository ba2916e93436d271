"""Fig. 9: CPU-side software-stack runtime scaling with input size.

Paper: for SobelFilter, Multi2Sim spends >150s on CPU-side execution at
the largest input while the JIT/DBT-based CPU simulator does the whole
stack in <10s, with much flatter scaling. Here: the same driver path
(buffer movement through guest memcpy) runs on the DBT engine vs the
interpretive engine; DBT must win by an increasing absolute margin.

Every size builds a fresh platform, so the DBT side translates its
routines each time; region code is compiled once per process, so only
the first size pays for ``compile()`` (~1 ms). Unlike the paper's DBT, ours
also runs the trips of a counted copy or fill loop (the guest ``memcpy``
and ``memset``) as block transfers, so its ratio far exceeds the paper's
~15x while both engines retire the same guest instructions (asserted).
Trip by trip it read 6.6-8.1x at 16x12 and 26-31x at 64x48; one closure
per guest instruction measured a flat 11.5x, so the floor on the largest
size is what fails if region translation, block chaining or the inline
RAM path regress to per-instruction dispatch.
"""

from conftest import emit, host_line

from repro.analysis.figures import fig09_driver_scaling
from repro.instrument.report import format_table


def test_fig09_driver_scaling(benchmark):
    rows = benchmark.pedantic(fig09_driver_scaling, rounds=1, iterations=1)
    assert all(row["dbt_verified"] and row["interpretive_verified"]
               for row in rows)
    assert all(row["dbt_guest_instructions"]
               == row["interpretive_guest_instructions"] for row in rows)
    table = format_table(
        ("input", "DBT driver (s)", "interpretive driver (s)", "DBT speedup"),
        [
            (row["input"], f"{row['dbt_driver_seconds']:.3f}",
             f"{row['interpretive_driver_seconds']:.3f}",
             f"{row['dbt_speedup']:.2f}x")
            for row in rows
        ],
        title="Fig. 9: SobelFilter driver (CPU-side) runtime vs input size",
    )
    emit("fig09_driver_scaling",
         table + "\n\n" + host_line("CPU dbt vs interpretive, GPU interp"))
    # DBT must beat the interpreter at every size, by the paper's ">15x"
    # once translation is amortized, and the absolute gap must grow with
    # input size (the diverging curves of Fig. 9)
    for row in rows:
        assert row["dbt_speedup"] > 3, row
    assert rows[-1]["dbt_speedup"] > 15, rows[-1]
    gaps = [row["interpretive_driver_seconds"] - row["dbt_driver_seconds"]
            for row in rows]
    assert gaps[-1] > gaps[0]
