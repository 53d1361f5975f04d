//! The host-speed probe: a fixed computation timed before the first
//! operation of a pass and after every operation, so that the benchmark's
//! times can be told apart from the speed of the host they ran on.
//!
//! On a shared host the same code runs up to twice as fast in one minute
//! as in another, and every timing moves with it. Each operation's time is
//! therefore divided by the probe times around it and multiplied by
//! [`REF_PROBE_MS`]: the time the operation would have taken while the
//! probe took its reference time. A change to the simulator moves these
//! scaled times as it moves raw ones; a change in host speed moves the
//! probe too and cancels out. The probe is the benchmark's own code and
//! calls no simulator crate.
//!
//! It mixes an event queue (a binary heap of 4096 timestamped events)
//! with a hash map of 64 Ki keys, about 1 MB: on the host the benchmark
//! was written on, the simulator's times follow the two together more
//! closely than either one alone.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Probe time, in ms, that scaled times are referred to: about what the
/// probe takes on the two-vCPU 2.1 GHz Xeon virtual machine the benchmark
/// was written on.
pub const REF_PROBE_MS: f64 = 4.0;

/// Events the heap half of the probe pops and pushes back.
const HEAP_EVENTS: u32 = 20_000;

/// Hash-map updates of the other half.
const MAP_UPDATES: u64 = 30_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Runs the probe once; returns its host time in ms.
pub fn probe_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut heap = BinaryHeap::with_capacity(4096);
    for id in 0..4096u32 {
        heap.push(Reverse((xorshift(&mut x) & 0xFFFF, id)));
    }
    let mut sum = 0u64;
    for _ in 0..HEAP_EVENTS {
        let Reverse((time, id)) = heap.pop().expect("the heap is never empty");
        sum = sum.wrapping_add(time ^ u64::from(id));
        heap.push(Reverse((time + (xorshift(&mut x) & 0xFFF), id)));
    }
    // Fixed hash keys: the same probe in every process.
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(1 << 15, BuildHasherDefault::default());
    for k in 0..MAP_UPDATES {
        let key = xorshift(&mut x) & 0xFFFF;
        *map.entry(key).or_insert(0) += k;
        if let Some(v) = map.get(&(key ^ 0x55)) {
            sum = sum.wrapping_add(*v);
        }
        if k % 3 == 0 {
            map.remove(&(key ^ 0xAA));
        }
    }
    black_box(sum);
    t.elapsed().as_secs_f64() * 1e3
}

/// The factor that refers a time measured while the probe took `probe_ms`
/// to the reference host speed.
pub fn scale(probe_ms: f64) -> f64 {
    if probe_ms > 0.0 {
        REF_PROBE_MS / probe_ms
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_takes_time_and_scales_inversely() {
        assert!(probe_ms() > 0.0);
        assert_eq!(scale(REF_PROBE_MS), 1.0);
        assert_eq!(scale(2.0 * REF_PROBE_MS), 0.5);
        assert_eq!(scale(0.0), 1.0);
    }
}
