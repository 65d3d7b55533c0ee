//! The `bench` binary; everything lives in the library so the tests can
//! reach it.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    fl_campaign_bench::main_with_args(&args)
}
