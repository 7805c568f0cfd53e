//! Word Count (paper §V): count occurrences of each word in a large mapped
//! document.
//!
//! Variable-length records (whitespace-delimited words), 100% of the mapped
//! data read, nothing modified — Table I. The counts live in a centralized
//! device hash table updated with atomics; the contention on hot (Zipf-
//! frequent) words is what makes Word Count computation-dominant in the
//! paper's Fig. 4(b)/Fig. 6.
//!
//! Work splitting uses the classic text-split convention: a thread with
//! range `[s, e)` first skips the word in progress at `s` (it belongs to the
//! previous thread), then counts every word *starting* at a position
//! `≤ e`, scanning past `e` to finish the last one. All reads are a single
//! forward pass, so the address-generation slice is simply "every byte from
//! `s` to `e + halo`" — a period-1 stride pattern, which is why pattern
//! recognition matters so much here (Table II: 66%).

use crate::harness::{AppSpec, BenchApp, Instance};
use crate::util::{fnv1a, fnv1a_step, DevHashTable, FNV_OFFSET};
use bk_runtime::ctx::AddrGenCtx;
use bk_runtime::{KernelCtx, Machine, StreamArray, StreamId};
use bk_simcore::{SplitMix64, Zipf};
use std::collections::HashMap;
use std::ops::Range;

/// Maximum generated word length (bounds the scan-past-end distance).
pub const MAX_WORD: usize = 12;
/// Halo: worst case = skip a partial word + delimiters + one full word.
pub const HALO: u64 = 64;

#[inline]
fn is_delim(b: u8) -> bool {
    b == b' ' || b == b'\n'
}

/// Non-zero hash key for a word hash.
#[inline]
fn word_key(h: u64) -> u64 {
    h | 1
}

/// The Word Count kernel.
pub struct WordCountKernel {
    pub table: DevHashTable,
    pub text_len: u64,
}

impl bk_runtime::StreamKernel for WordCountKernel {
    fn name(&self) -> &'static str {
        "wordcount"
    }

    fn record_size(&self) -> Option<u64> {
        None // variable-length
    }

    fn halo_bytes(&self) -> u64 {
        HALO
    }

    fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
        if range.is_empty() {
            return;
        }
        let end = (range.end + HALO).min(self.text_len);
        ctx.emit_read_run(StreamId(0), range.start, 1, end - range.start);
    }

    fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
        if range.is_empty() {
            return;
        }
        let len = self.text_len;
        let mut p = range.start;
        let mut buf = [0u8; RUN];

        // Skip the word in progress at `s` — it started in (or before) the
        // previous thread's range. The delimiter ending it is consumed.
        if p > 0 {
            while p < len {
                let mut at_delim = false;
                let n = ((len - p) as usize).min(RUN);
                let got = ctx.stream_read_run(StreamId(0), p, 1, &mut buf[..n], &mut |c| {
                    at_delim = is_delim(c as u8);
                    !at_delim
                });
                ctx.alu(got as u64);
                p += got as u64;
                if at_delim {
                    break;
                }
            }
        }

        // Count every word starting at a position `<= e`. Each run scans
        // from the next unread byte through the delimiters before a word,
        // the word, and the delimiter ending it, and consumes no further: a
        // single forward pass, so no byte is ever read twice (the FIFO
        // verification depends on that).
        let mut word = WordScan::new(range.end);
        loop {
            // Looking for a word start: words starting past `e` belong to
            // the next thread. Inside a word: the text's end completes it.
            if p >= len || (!word.in_word && p > range.end) {
                if word.in_word {
                    self.table.add(ctx, word_key(word.h), 1);
                }
                break;
            }
            let n = ((len - p) as usize).min(RUN);
            word.pos = p;
            let got = ctx.stream_read_run(StreamId(0), p, 1, &mut buf[..n], &mut |c| {
                word.step(c as u8)
            });
            p += got as u64;
            ctx.alu(std::mem::take(&mut word.alu));
            if word.ended {
                self.table.add(ctx, word_key(word.h), 1);
                word = WordScan::new(range.end);
            }
        }
    }
}

/// Bytes one kernel run read asks for: enough for the delimiters before a
/// word, the longest word and its delimiter in most cases.
const RUN: usize = 16;

/// The kernel's scanner state across run reads: whether a word is open,
/// its hash so far, and the instructions the consumed bytes cost (one per
/// byte while looking for a word start, two per word character).
struct WordScan {
    /// Last position a word may start at (the thread range's end).
    last_start: u64,
    /// Stream position of the next byte the scanner sees.
    pos: u64,
    in_word: bool,
    h: u64,
    alu: u64,
    /// The delimiter ending the open word was consumed.
    ended: bool,
}

impl WordScan {
    fn new(last_start: u64) -> Self {
        WordScan {
            last_start,
            pos: 0,
            in_word: false,
            h: FNV_OFFSET,
            alu: 0,
            ended: false,
        }
    }

    /// Consume byte `c`; returns whether the next byte is read.
    fn step(&mut self, c: u8) -> bool {
        self.pos += 1;
        if self.in_word {
            if is_delim(c) {
                self.ended = true;
                return false;
            }
        } else {
            self.alu += 1;
            if is_delim(c) {
                // The next byte would start a word past the range's end.
                return self.pos <= self.last_start;
            }
            self.in_word = true;
        }
        self.h = fnv1a_step(self.h, c);
        self.alu += 2;
        true
    }
}

/// The Word Count benchmark application.
pub struct WordCount {
    /// Vocabulary size.
    pub vocab: usize,
    /// Zipf skew of word frequencies.
    pub skew: f64,
}

impl Default for WordCount {
    fn default() -> Self {
        WordCount {
            vocab: 8192,
            skew: 1.0,
        }
    }
}

/// Generate Zipf-distributed text of exactly `bytes` bytes. Returns the
/// text; reference counting runs over the same buffer.
pub fn generate_text(bytes: u64, vocab: usize, skew: f64, seed: u64) -> Vec<u8> {
    generate_text_sized(bytes, vocab, skew, seed, 2, MAX_WORD)
}

/// [`generate_text`] with explicit word-length bounds (`min_word..=max_word`
/// letters, `max_word <= MAX_WORD` so the kernel's halo still covers the
/// longest word). The streaming drift scenarios splice texts with different
/// length regimes to shift the words-per-byte (and so atomics-per-byte)
/// density mid-stream.
pub fn generate_text_sized(
    bytes: u64,
    vocab: usize,
    skew: f64,
    seed: u64,
    min_word: usize,
    max_word: usize,
) -> Vec<u8> {
    assert!(
        0 < min_word && min_word <= max_word && max_word <= MAX_WORD,
        "word-length bounds must satisfy 0 < min <= max <= MAX_WORD"
    );
    let mut rng = SplitMix64::new(seed);
    // Vocabulary: short lowercase words.
    let words: Vec<Vec<u8>> = (0..vocab)
        .map(|_| {
            let len = rng.range_inclusive(min_word as u64, max_word as u64) as usize;
            (0..len).map(|_| b'a' + rng.next_below(26) as u8).collect()
        })
        .collect();
    let zipf = Zipf::new(vocab, skew);
    let mut text = Vec::with_capacity(bytes as usize);
    while (text.len() as u64) < bytes {
        let w = &words[zipf.sample(&mut rng)];
        if text.len() + w.len() + 1 > bytes as usize {
            break;
        }
        text.extend_from_slice(w);
        text.push(if rng.next_below(20) == 0 { b'\n' } else { b' ' });
    }
    text.resize(bytes as usize, b' ');
    text
}

/// Reference single-pass word count (same keying as the kernel).
pub fn reference_counts(text: &[u8]) -> HashMap<u64, u64> {
    let mut counts = HashMap::new();
    for word in text.split(|&b| is_delim(b)).filter(|w| !w.is_empty()) {
        *counts.entry(word_key(fnv1a(word))).or_insert(0) += 1;
    }
    counts
}

impl BenchApp for WordCount {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "Word Count",
            paper_data_size: "4.5GB",
            record_type: "Variable-length",
            paper_read_pct: 100,
            paper_modified_pct: 0,
            pattern_applicable: true,
        }
    }

    fn instantiate(&self, machine: &mut Machine, bytes: u64, seed: u64) -> Instance {
        let text = generate_text(bytes, self.vocab, self.skew, seed);
        let expected = reference_counts(&text);
        let region = machine.hmem.alloc_from(&text);
        let stream = StreamArray::map(machine, StreamId(0), region);

        // Table sized for the vocabulary with headroom.
        let slots = (self.vocab as u64 * 4).next_power_of_two();
        let buf = machine.gmem.alloc(DevHashTable::bytes_for(slots));
        let table = DevHashTable { buf, slots };

        let verify = move |m: &Machine| -> Result<(), String> {
            let total: u64 = expected.values().sum();
            let got_total = table.total(&m.gmem);
            if got_total != total {
                return Err(format!("total words {got_total} != expected {total}"));
            }
            for (&key, &count) in &expected {
                let got = table.get(&m.gmem, key);
                if got != count {
                    return Err(format!("word key {key:#x}: count {got} != {count}"));
                }
            }
            if table.occupied(&m.gmem) != expected.len() as u64 {
                return Err("spurious words counted".into());
            }
            Ok(())
        };

        Instance {
            kernels: vec![Box::new(WordCountKernel {
                table,
                text_len: bytes,
            })],
            streams: vec![stream],
            scratch_streams: vec![],
            fused: None,
            verify: Box::new(verify),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_all, HarnessConfig, Implementation};
    use bk_baselines::BigKernelVariant;

    #[test]
    fn reference_counts_simple() {
        let counts = reference_counts(b"the cat and the hat");
        assert_eq!(counts[&word_key(fnv1a(b"the"))], 2);
        assert_eq!(counts[&word_key(fnv1a(b"cat"))], 1);
        assert_eq!(counts.len(), 4);
    }

    #[test]
    fn generated_text_is_exact_size_and_deterministic() {
        let a = generate_text(1000, 64, 1.0, 5);
        let b = generate_text(1000, 64, 1.0, 5);
        assert_eq!(a.len(), 1000);
        assert_eq!(a, b);
        assert_ne!(a, generate_text(1000, 64, 1.0, 6));
        assert!(a.iter().all(|&c| c.is_ascii_lowercase() || is_delim(c)));
    }

    #[test]
    fn all_implementations_agree() {
        let app = WordCount {
            vocab: 256,
            skew: 1.0,
        };
        let cfg = HarnessConfig::test_small();
        run_all(&app, 48 * 1024, 42, &cfg, &Implementation::FIG4A);
    }

    #[test]
    fn variants_agree() {
        let app = WordCount {
            vocab: 256,
            skew: 1.0,
        };
        let cfg = HarnessConfig::test_small();
        run_all(
            &app,
            24 * 1024,
            11,
            &cfg,
            &[
                Implementation::Variant(BigKernelVariant::OverlapOnly),
                Implementation::Variant(BigKernelVariant::VolumeReduction),
            ],
        );
    }

    #[test]
    fn whole_text_is_read() {
        let app = WordCount {
            vocab: 256,
            skew: 1.0,
        };
        let cfg = HarnessConfig::test_small();
        let results = run_all(&app, 32 * 1024, 1, &cfg, &[Implementation::BigKernel]);
        let read = results[0].1.metrics.get("stream.bytes_read");
        // >= 100% of the data (plus halo overlap re-reads).
        assert!(read >= 32 * 1024, "read {read}");
        assert_eq!(results[0].1.metrics.get("stream.bytes_written"), 0);
    }

    #[test]
    fn byte_scan_is_pattern_compressed() {
        let app = WordCount {
            vocab: 256,
            skew: 1.0,
        };
        let cfg = HarnessConfig::test_small();
        let results = run_all(&app, 32 * 1024, 2, &cfg, &[Implementation::BigKernel]);
        let c = &results[0].1.metrics;
        assert!(c.get("addr.patterns_found") > 0);
        assert_eq!(
            c.get("addr.patterns_missed"),
            0,
            "byte scans must always compress"
        );
    }
}
