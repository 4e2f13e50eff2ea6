//! Regenerates the experiment tables (E1–E7, E9–E14). Name the experiments
//! to run — `all_tables throughput roopt` — or none to run them all in
//! order. `--scale tiny|small|medium` and `--homogeneous` configure
//! `andrew`.

use base_bench::experiments::{
    run_andrew, run_bandwidth, run_checkpoint, run_codesize, run_degree, run_faultinj, run_oodb,
    run_recovery, run_roopt, run_shards, run_sigmac, run_throughput, run_transfer,
};
use base_bench::{AndrewScale, FsMix};

type Run = fn(AndrewScale, FsMix);

const EXPERIMENTS: &[(&str, &str, Run)] = &[
    ("andrew", "E1: Andrew benchmark", |scale, mix| { run_andrew(scale, mix); }),
    ("codesize", "E2: code size", |_, _| { run_codesize(); }),
    ("recovery", "E3: proactive recovery", |_, _| run_recovery()),
    ("transfer", "E4: state transfer", |_, _| run_transfer()),
    ("checkpoint", "E5: checkpointing", |_, _| run_checkpoint()),
    ("faultinj", "E6: fault injection", |_, _| run_faultinj()),
    ("oodb", "E7: replicated OODB", |_, _| run_oodb()),
    ("throughput", "E9: throughput vs clients", |_, _| run_throughput()),
    ("degree", "E10: replication degree", |_, _| run_degree()),
    ("roopt", "E11: read-only optimization", |_, _| run_roopt()),
    ("sigmac", "E12: MACs vs signatures", |_, _| run_sigmac()),
    ("bandwidth", "E13: network bandwidth", |_, _| run_bandwidth()),
    ("shards", "E14: shard scaling", |_, _| { run_shards(); }),
];

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    eprintln!(
        "usage: all_tables [--scale tiny|small|medium] [--homogeneous] [EXPERIMENT...]\n\
         experiments: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut scale = AndrewScale::small();
    let mut mix = FsMix::Heterogeneous;
    let mut chosen = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("tiny") => AndrewScale::tiny(),
                    Some("small") => AndrewScale::small(),
                    Some("medium") => AndrewScale::medium(),
                    _ => usage(),
                }
            }
            "--homogeneous" => mix = FsMix::HomogeneousInode,
            name => match EXPERIMENTS.iter().find(|e| e.0 == name) {
                Some(e) => chosen.push(e),
                None => usage(),
            },
        }
    }
    if chosen.is_empty() {
        chosen.extend(EXPERIMENTS);
    }
    for (_, title, run) in chosen {
        println!("\n################ {title} ################");
        run(scale, mix);
    }
}
