//! Figure 9(c) — execution times against the bound-property count. The panels and claims are [`ntga_bench::figure::fig9c`].
fn main() -> std::process::ExitCode {
    ntga_bench::figure::main(ntga_bench::figure::fig9c)
}
