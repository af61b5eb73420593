//! Figure 9(b) — BSBM-2M analog, replication 1: execution times. The panels and claims are [`ntga_bench::figure::fig9b`].
fn main() -> std::process::ExitCode {
    ntga_bench::figure::main(ntga_bench::figure::fig9b)
}
