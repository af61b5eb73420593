//! Figure 9(a) — BSBM-2M analog, replication 2, constrained disk. The panels and claims are [`ntga_bench::figure::fig9a`].
fn main() -> std::process::ExitCode {
    ntga_bench::figure::main(ntga_bench::figure::fig9a)
}
