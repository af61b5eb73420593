//! Figure 10 — HDFS writes against the bound-property count. The panels and claims are [`ntga_bench::figure::fig10`].
fn main() -> std::process::ExitCode {
    ntga_bench::figure::main(ntga_bench::figure::fig10)
}
