//! Opinion Finder (paper §V): sentiment analysis of tweets about a subject.
//!
//! Mapped data: fixed 256-byte tweet records; the kernel reads the 4-byte
//! timestamp and the fixed 183-byte text area (187 B = 73% of the record,
//! matching Table I). Words of each tweet are looked up in three
//! device-resident dictionaries (positive, negative, adverb); a tweet
//! contributes to the aggregate sentiment score only when it mentions one of
//! the subject keywords, and an adverb doubles the weight of the following
//! sentiment word. The heavy per-character lexical analysis plus dictionary
//! probes make this the paper's computation-dominant benchmark.

use crate::harness::{AppSpec, BenchApp, Instance};
use crate::util::{fnv1a, fnv1a_step, DevHashTable, FNV_OFFSET};
use bk_runtime::ctx::AddrGenCtx;
use bk_runtime::{KernelCtx, Machine, StreamArray, StreamId, ValueExt};
use bk_simcore::{SplitMix64, Zipf};
use std::ops::Range;

/// Bytes per tweet record.
pub const RECORD: u64 = 256;
/// Offset/length of the fixed text area.
pub const TEXT_OFF: u64 = 64;
pub const TEXT_LEN: u64 = 183;

#[inline]
fn key(h: u64) -> u64 {
    h | 1
}

/// Sentiment dictionaries (device-resident sets keyed by word hash).
#[derive(Clone, Copy)]
pub struct Dictionaries {
    pub positive: DevHashTable,
    pub negative: DevHashTable,
    pub adverbs: DevHashTable,
    pub subject: DevHashTable,
}

/// Score one tweet's text given per-word class lookups — shared between the
/// kernel (device dictionaries) and the reference (host sets).
///
/// `classify(word_hash) -> (is_subject, is_positive, is_negative, is_adverb)`
pub fn score_text<F: FnMut(u64) -> (bool, bool, bool, bool)>(text: &[u8], mut classify: F) -> i64 {
    let mut score = 0i64;
    let mut mentioned = false;
    let mut adverb_boost = 1i64;
    let mut h = FNV_OFFSET;
    let mut in_word = false;
    for &c in text.iter().chain(std::iter::once(&b' ')) {
        if c == b' ' {
            if in_word {
                let (subj, pos, neg, adv) = classify(key(h));
                if subj {
                    mentioned = true;
                }
                if pos {
                    score += adverb_boost;
                }
                if neg {
                    score -= adverb_boost;
                }
                adverb_boost = if adv { 2 } else { 1 };
                h = FNV_OFFSET;
                in_word = false;
            }
        } else {
            h = fnv1a_step(h, c);
            in_word = true;
        }
    }
    if mentioned {
        score
    } else {
        0
    }
}

/// The sentiment kernel.
pub struct OpinionKernel {
    pub dicts: Dictionaries,
    /// Aggregate score accumulator (one u64 cell, wrapping-signed).
    pub acc: bk_runtime::DevBufId,
}

impl bk_runtime::StreamKernel for OpinionKernel {
    fn name(&self) -> &'static str {
        "opinion-finder"
    }

    fn record_size(&self) -> Option<u64> {
        Some(RECORD)
    }

    fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
        let mut off = range.start;
        while off < range.end {
            ctx.emit_read(StreamId(0), off, 4); // timestamp
            ctx.emit_read_run(StreamId(0), off + TEXT_OFF, 1, TEXT_LEN); // text
            ctx.alu(2);
            off += RECORD;
        }
    }

    fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
        let mut total = 0i64;
        let mut off = range.start;
        while off < range.end {
            let _ts = ctx.stream_read_u32(StreamId(0), off);
            // Read the fixed text area as one byte run (same order as
            // emitted); the tokenizer state machine and hashing cost three
            // instructions per character.
            let mut text = [b' '; TEXT_LEN as usize];
            ctx.stream_read_bytes(StreamId(0), off + TEXT_OFF, &mut text);
            ctx.alu(3 * TEXT_LEN);
            let dicts = self.dicts;
            total += score_text(&text, |k| {
                (
                    dicts.subject.contains(ctx, k),
                    dicts.positive.contains(ctx, k),
                    dicts.negative.contains(ctx, k),
                    dicts.adverbs.contains(ctx, k),
                )
            });
            off += RECORD;
        }
        if range.start < range.end {
            ctx.dev_atomic_add_u64(self.acc, 0, total as u64);
        }
    }
}

/// The Opinion Finder benchmark application.
pub struct OpinionFinder {
    pub vocab: usize,
}

impl Default for OpinionFinder {
    fn default() -> Self {
        OpinionFinder { vocab: 4096 }
    }
}

impl BenchApp for OpinionFinder {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "Opinion Finder",
            paper_data_size: "6.2GB",
            record_type: "Fixed-length",
            paper_read_pct: 73,
            paper_modified_pct: 0,
            pattern_applicable: true,
        }
    }

    fn instantiate(&self, machine: &mut Machine, bytes: u64, seed: u64) -> Instance {
        let n = (bytes / RECORD).max(1);
        let mut rng = SplitMix64::new(seed);

        // Vocabulary and word classes.
        let words: Vec<Vec<u8>> = (0..self.vocab)
            .map(|_| {
                let len = rng.range_inclusive(2, 10) as usize;
                (0..len).map(|_| b'a' + rng.next_below(26) as u8).collect()
            })
            .collect();
        let class_of = |i: usize| (i.is_multiple_of(17), i % 11 == 1, i % 11 == 2, i % 29 == 3);
        // (subject, positive, negative, adverb) membership by vocab index.

        // Device dictionaries.
        let mk_set = |machine: &mut Machine, pred: &dyn Fn(usize) -> bool| {
            let slots = (self.vocab as u64 * 4).next_power_of_two();
            let buf = machine.gmem.alloc(DevHashTable::bytes_for(slots));
            let t = DevHashTable { buf, slots };
            // Host-side fill (setup cost is not part of the measured run,
            // matching the paper's treatment of dictionary upload).
            for (i, w) in words.iter().enumerate() {
                if pred(i) {
                    host_set_insert(machine, t, key(fnv1a(w)));
                }
            }
            t
        };
        let dicts = Dictionaries {
            subject: mk_set(machine, &|i| class_of(i).0),
            positive: mk_set(machine, &|i| class_of(i).1),
            negative: mk_set(machine, &|i| class_of(i).2),
            adverbs: mk_set(machine, &|i| class_of(i).3),
        };

        // Tweets.
        let zipf = Zipf::new(self.vocab, 1.0);
        let region = machine.hmem.alloc(n * RECORD);
        let mut expected = 0i64;
        {
            // Reference classification by word hash. Random vocabularies
            // contain duplicate words; the device dictionaries then hold the
            // *union* of the duplicates' classes, so the reference must OR
            // them too.
            let mut class_map = std::collections::HashMap::<u64, (bool, bool, bool, bool)>::new();
            for (i, w) in words.iter().enumerate() {
                let e = class_map
                    .entry(key(fnv1a(w)))
                    .or_insert((false, false, false, false));
                let c = class_of(i);
                e.0 |= c.0;
                e.1 |= c.1;
                e.2 |= c.2;
                e.3 |= c.3;
            }

            let data = machine.hmem.bytes_mut(region);
            for r in 0..n {
                let base = (r * RECORD) as usize;
                let ts = rng.next_below(1 << 30) as u32;
                data[base..base + 4].copy_from_slice(&ts.to_le_bytes());
                rng.fill_bytes(&mut data[base + 4..base + TEXT_OFF as usize]);
                // Text: words until the area is full, space-padded.
                let text_area =
                    &mut data[base + TEXT_OFF as usize..base + (TEXT_OFF + TEXT_LEN) as usize];
                text_area.fill(b' ');
                let mut pos = 0usize;
                loop {
                    let w = &words[zipf.sample(&mut rng)];
                    if pos + w.len() + 1 > TEXT_LEN as usize {
                        break;
                    }
                    text_area[pos..pos + w.len()].copy_from_slice(w);
                    pos += w.len() + 1;
                }
                rng.fill_bytes(
                    &mut data[base + (TEXT_OFF + TEXT_LEN) as usize..base + RECORD as usize],
                );
                let text_copy: Vec<u8> =
                    data[base + TEXT_OFF as usize..base + (TEXT_OFF + TEXT_LEN) as usize].to_vec();
                expected += score_text(&text_copy, |k| {
                    class_map
                        .get(&k)
                        .copied()
                        .unwrap_or((false, false, false, false))
                });
            }
        }
        let stream = StreamArray::map(machine, StreamId(0), region);
        let acc = machine.gmem.alloc(8);

        let verify = move |m: &Machine| -> Result<(), String> {
            let got = m.gmem.read_u64(acc, 0) as i64;
            if got != expected {
                return Err(format!("sentiment {got} != expected {expected}"));
            }
            Ok(())
        };

        Instance {
            kernels: vec![Box::new(OpinionKernel { dicts, acc })],
            streams: vec![stream],
            scratch_streams: vec![],
            fused: None,
            verify: Box::new(verify),
        }
    }
}

/// Host-side insert into a device hash set (setup path, no kernel costs).
fn host_set_insert(machine: &mut Machine, t: DevHashTable, k: u64) {
    let mut i = k & (t.slots - 1);
    loop {
        let off = i * crate::util::HASH_ENTRY_BYTES;
        let tag = machine.gmem.read_u64(t.buf, off);
        if tag == 0 {
            machine.gmem.write_u64(t.buf, off, k);
            machine.gmem.write_u64(t.buf, off + 8, 1);
            return;
        }
        if tag == k {
            return;
        }
        i = (i + 1) & (t.slots - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_all, HarnessConfig, Implementation};

    #[test]
    fn score_text_rules() {
        // classes keyed on the word text for clarity
        let classify = |k: u64| {
            let mk = |w: &[u8]| key(fnv1a(w));
            (
                k == mk(b"topic"),
                k == mk(b"good"),
                k == mk(b"bad"),
                k == mk(b"very"),
            )
        };
        // No subject mention → 0 regardless of sentiment.
        assert_eq!(score_text(b"good good bad", classify), 0);
        // Mentioned: +1 +1 -1 = 1.
        assert_eq!(score_text(b"topic good good bad", classify), 1);
        // Adverb doubles the next word: very good = +2.
        assert_eq!(score_text(b"topic very good", classify), 2);
        // Adverb boost applies only to the immediately following word.
        assert_eq!(score_text(b"topic very good good", classify), 3);
        assert_eq!(score_text(b"topic very bad", classify), -2);
    }

    #[test]
    fn all_implementations_agree() {
        let app = OpinionFinder { vocab: 128 };
        let cfg = HarnessConfig::test_small();
        run_all(&app, 64 * 1024, 42, &cfg, &Implementation::FIG4A);
    }

    #[test]
    fn read_proportion_matches_table1() {
        let app = OpinionFinder { vocab: 128 };
        let cfg = HarnessConfig::test_small();
        let results = run_all(&app, 64 * 1024, 3, &cfg, &[Implementation::BigKernel]);
        let c = &results[0].1.metrics;
        let read_pct = 100.0 * c.get("stream.bytes_read") as f64 / (64.0 * 1024.0);
        assert!((read_pct - 73.0).abs() < 2.0, "read {read_pct}%");
    }
}
