//! The host-speed reference: a fixed loop that never changes with the
//! program, timed between passes so that each pass time can be scaled to
//! a host running at a fixed speed. See `NOTES.md`, "Normalised times".

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use crate::stats::median;

/// Seconds one [`reference_rep`] takes on the reference host, a 2-vCPU
/// KVM guest on an Intel Xeon (Sapphire Rapids family) when quiet.
/// Normalised times are host times scaled by this over the measured
/// repetition time.
pub const REFERENCE_REP_S: f64 = 0.0325;

/// Repetitions in one [`sample`].
const REPS: usize = 9;

/// The argument that makes the benchmark's binary take one sample and
/// print its repetition times, one a line, instead of running a workload.
pub const SAMPLE_FLAG: &str = "--reference-sample";

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The shape of a cycle simulator's inner loop: a timed event queue,
/// bounded FIFOs, a data-dependent dispatch and a table that fits in the
/// L2 cache, then a sort of pseudo-random keys.
fn events(rng: &mut u64) -> u64 {
    const STEPS: u64 = 600_000;
    const KEYS: u64 = 1 << 17;
    let mut queue = BinaryHeap::new();
    let mut fifos = vec![VecDeque::<u64>::with_capacity(16); 8];
    let mut table = vec![0u64; 1 << 15];
    for d in 0..8u64 {
        queue.push(Reverse((d, d)));
    }
    let mut acc = 0u64;
    for _ in 0..STEPS {
        let Reverse((t, d)) = queue.pop().expect("the queue holds one event per FIFO");
        let r = xorshift(rng);
        let fifo = &mut fifos[d as usize];
        match r % 4 {
            0 if fifo.len() < 16 => fifo.push_back(r),
            1 => acc = acc.wrapping_add(fifo.pop_front().unwrap_or(0)),
            2 => {
                let slot = (r >> 20) as usize & (table.len() - 1);
                table[slot] = table[slot].wrapping_add(t);
                acc ^= table[slot];
            }
            _ => acc = acc.rotate_left(3) ^ t,
        }
        queue.push(Reverse((t + 1 + (r >> 60), d)));
    }
    let mut keys: Vec<u64> = (0..KEYS).map(|_| xorshift(rng)).collect();
    keys.sort_unstable();
    acc ^ keys[keys.len() / 2]
}

/// The shape of a sweep's record path: format record names into strings,
/// count them in a hash map that grows to several MiB, and render part of
/// the map as JSON text every thousand records.
fn records(rng: &mut u64) -> usize {
    const RECORDS: u64 = 150_000;
    const NAMES: u64 = 20_000;
    let mut counts: HashMap<String, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut acc = 0usize;
    for i in 0..RECORDS {
        let name = format!("run-{:x}-{}", xorshift(rng) % NAMES, i % 7);
        acc += name.len();
        *counts.entry(name).or_default() += 1;
        if i % 1000 == 0 {
            let mut json = String::new();
            for (name, n) in counts.iter().take(50) {
                let _ = write!(json, "{{\"{name}\": {:.3e}}},", *n as f64);
            }
            acc += json.len();
        }
    }
    acc
}

/// One repetition of the reference loop, in seconds: [`events`] then
/// [`records`]. Its inputs are fixed, so its work never changes. The
/// simulator slows by different amounts than either part alone when the
/// host is loaded (records by more, events by less); the sum follows it
/// more closely than either.
pub fn reference_rep() -> f64 {
    let start = Instant::now();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    black_box(events(&mut rng));
    black_box(records(&mut rng));
    start.elapsed().as_secs_f64()
}

/// Prints one sample's repetition times, one a line: what the benchmark's
/// binary does when given [`SAMPLE_FLAG`].
pub fn print_sample() {
    for _ in 0..REPS {
        println!("{:?}", reference_rep());
    }
}

/// One sample of the host's speed: [`REPS`] repetitions of the reference
/// loop, in seconds. They run in a child process of this binary, so that
/// the loop's memory neither counts in this process's peak resident set
/// nor shares an allocator with the program.
pub fn sample() -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .arg(SAMPLE_FLAG)
        .output()
        .map_err(|e| format!("cannot run the reference sample: {e}"))?;
    if !out.status.success() {
        return Err(format!("the reference sample exited with {}", out.status));
    }
    let reps: Vec<f64> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| {
            l.parse::<f64>()
                .map_err(|e| format!("bad reference time {l:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if reps.len() != REPS || !reps.iter().all(|t| t.is_finite() && *t > 0.0) {
        return Err(format!("the reference sample printed {reps:?}"));
    }
    Ok(reps)
}

/// The factors that scale each round's host times to the reference host.
/// Round `i` ran between samples `i` and `i + 1`; its factor is
/// [`REFERENCE_REP_S`] over the median repetition of those two samples.
pub fn round_scales(samples: &[Vec<f64>]) -> Vec<f64> {
    samples
        .windows(2)
        .map(|w| {
            let reps = [w[0].as_slice(), w[1].as_slice()].concat();
            REFERENCE_REP_S / median(&reps).expect("a sample is not empty")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_round_is_scaled_by_the_samples_either_side_of_it() {
        let r = REFERENCE_REP_S;
        // The host at its reference speed, then at half speed: the middle
        // round straddles the change, and a burst in one repetition does
        // not move its sample.
        let samples = [
            vec![r, r, r],
            vec![r, 2.0 * r, r],
            vec![2.0 * r, 2.0 * r, 9.0],
        ];
        assert_eq!(round_scales(&samples), vec![1.0, 0.5]);
        assert_eq!(round_scales(&samples[..1]), Vec::<f64>::new());
    }
}
