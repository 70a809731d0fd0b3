//! Blocked prefix offsets with model charging.
//!
//! The `block` parameter is an **accounting** block: it fixes the per-block
//! charges and the `scoped_par` split-tree bookkeeping. How many blocks one
//! forked task processes is `scoped_par`'s cost-invisible execution grain,
//! sized from the pool's thread count.
//!
//! When a scan only exists to glue a count pass to an emit pass,
//! [`flat_collect`](crate::fused::flat_collect) skips the offsets and
//! their writes entirely; [`block_offsets`] remains the write-efficient
//! backbone of the materialized [`crate::filter`].

use wec_asym::Ledger;

/// Per-block exclusive offsets (`#blocks + 1` entries): the
/// write-efficient half of a scan, used by [`crate::filter`] so that total
/// writes stay proportional to output size. Charges `n` reads and
/// `#blocks + 1` writes.
pub fn block_offsets(
    led: &mut Ledger,
    n: usize,
    block: usize,
    count_in_block: &(impl Fn(usize, usize, &mut Ledger) -> u64 + Sync),
) -> Vec<u64> {
    let block = block.max(1);
    // One worker scope per block: the predicate charges its reads to the
    // scope it runs under, blocks count concurrently.
    let sums = if n == 0 {
        vec![count_in_block(0, 0, led)]
    } else {
        led.scoped_par(n, block, &|r, s| count_in_block(r.start, r.end, s.ledger()))
    };
    let nb = sums.len();
    let mut offsets = Vec::with_capacity(nb + 1);
    let mut acc = 0u64;
    led.op(nb as u64);
    led.write(nb as u64 + 1);
    for &s in &sums {
        offsets.push(acc);
        acc += s;
    }
    offsets.push(acc);
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_offsets_write_count_is_blocks_only() {
        let mut led = Ledger::new(8);
        let offs = block_offsets(&mut led, 1000, 100, &|lo, hi, l| {
            l.read((hi - lo) as u64);
            (hi - lo) as u64
        });
        assert_eq!(offs.len(), 11);
        assert_eq!(offs[10], 1000);
        assert_eq!(led.costs().asym_writes, 11);
        assert_eq!(led.costs().asym_reads, 1000);
    }
}
