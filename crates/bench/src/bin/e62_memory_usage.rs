//! Regenerates the §6.2 memory-usage microbenchmark: grow by 1 byte until
//! failure; report total/app/grant/unused for Tock, TickTock, and padded
//! TickTock.
//!
//! `--json [path]` additionally writes `BENCH_e62.json` with the three
//! configurations' measurements and the run's wall-clock.

use tt_bench::e62::MemUsage;
use tt_bench::json;

fn row(name: &str, m: &MemUsage) -> String {
    format!(
        "    {{\"config\": \"{}\", \"total\": {}, \"app\": {}, \"grant\": {}, \"unused\": {}, \"unused_pct\": {}}}",
        json::escape(name),
        m.total,
        m.app,
        m.grant,
        m.unused,
        json::num(m.unused_pct())
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = tt_bench::args::path(&args, "--json", "BENCH_e62.json");

    println!("Section 6.2: Memory usage (grow-by-1-byte-until-failure)");
    let started = std::time::Instant::now();
    let (tock, ticktock, padded) = tt_bench::e62::run();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    println!("{}", tt_bench::e62::render(&tock, &ticktock, &padded));
    println!("(paper: Tock 8,192 total / 6,656 app / 1,284 grant / 252 unused (3.08%);");
    println!("        TickTock 7,780 / 6,144 / 1,200 / 436 (5.60%); padded TickTock unused 336)");

    if let Some(path) = json_path {
        let doc = format!(
            "{{\n  \"experiment\": \"e62_memory_usage\",\n  \"wall_clock_ms\": {},\n  \"configs\": [\n{},\n{},\n{}\n  ]\n}}\n",
            json::num(wall_ms),
            row("tock", &tock),
            row("ticktock", &ticktock),
            row("ticktock_padded", &padded),
        );
        match std::fs::write(&path, &doc) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
