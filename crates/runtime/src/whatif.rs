//! What-if replay: predict the makespan of a perturbed pipeline without
//! re-simulating the application.
//!
//! The scheduler ([`bk_simcore::pipeline::schedule`]) is a pure
//! deterministic function of per-chunk stage costs, graph shape and device
//! count — and those costs are device- and schedule-independent (the
//! machine model prices each stage instance before anything is scheduled).
//! So a captured run ([`bk_obs::critpath::WaveDag`] snapshots) contains
//! everything needed to answer "what would the makespan be if ...": take
//! each wave's [`GraphSpec`] from its first shard, rebuild the duration
//! rows from the slots, apply a [`Perturbation`], and re-run the executor
//! (which moves the spec onto each device it shards over). For structural
//! perturbations the scheduler *is* the real system, so predictions match
//! actual re-runs to floating-point noise (the only error is
//! reconstructing each duration as `finish − start`); cost perturbations
//! ([`Perturbation::ScaleStage`], [`Perturbation::MergeChunks`]) are
//! *modeled* — they assume stage costs scale as stated, which no config
//! knob reproduces exactly — and are labeled as such.
//!
//! The `report bottleneck` section ranks [`scenarios`] by predicted speedup
//! and validates the structural ones against actual re-runs within 1%.

use crate::graph::Executor;
use bk_obs::critpath::WaveDag;
use bk_simcore::{GraphSpec, ScheduleView, SimTime};

/// A hypothetical change to the recorded pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Perturbation {
    /// No change — replays the recorded schedule. Predicting this and
    /// comparing against the recorded total validates the replay machinery
    /// (and cancels reconstruction noise when computing speedups).
    Identity,
    /// Scale one stage's cost on every chunk by `factor` (modeled).
    ScaleStage {
        /// Stage index to scale.
        stage: usize,
        /// Cost multiplier (0.5 = "twice as fast").
        factor: f64,
    },
    /// Set the depth of the reuse edge `producer → consumer` (more buffer
    /// sets: the §IV.C back-pressure rule relaxes). Structural — matches
    /// an actual re-run with the corresponding `buffer_depth` /
    /// `wb_buffer_depth` config.
    SetReuseDepth {
        /// Producer stage of the edge.
        producer: usize,
        /// Consumer stage of the edge.
        consumer: usize,
        /// New depth (buffer sets).
        depth: usize,
    },
    /// Shard over one more device. Structural — matches an actual re-run
    /// with `gpus + 1`.
    AddDevice,
    /// Merge every `factor` consecutive chunks into one, summing their
    /// stage costs (modeled: real chunk-size changes re-price fixed
    /// per-chunk overheads, which a linear merge cannot see).
    MergeChunks {
        /// How many consecutive chunks merge into one.
        factor: usize,
    },
}

/// A labeled what-if case: a perturbation plus whether its prediction is
/// merely modeled (cost-model assumption) or structural (scheduler-exact).
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable label ("compute ×0.5", "+1 device", ...).
    pub label: String,
    /// The change to apply.
    pub perturbation: Perturbation,
    /// True when the prediction rests on a cost-model assumption rather
    /// than the scheduler alone.
    pub modeled: bool,
}

/// A scenario with its predicted outcome, as ranked by [`rank`].
#[derive(Clone, Debug)]
pub struct Prediction {
    /// The evaluated scenario.
    pub scenario: Scenario,
    /// Predicted run makespan under the perturbation.
    pub makespan: SimTime,
    /// Predicted speedup vs the identity replay (> 1 is faster).
    pub speedup: f64,
}

/// Replay the captured waves under `p` and return the predicted run
/// makespan (the sum over waves of the perturbed wave makespan — waves run
/// back to back, exactly as the pipeline schedules them). `num_devices`
/// must be the recorded run's device count. Returns
/// `None` if no waves (or a wave without shards) were captured.
pub fn predict(waves: &[WaveDag], num_devices: usize, p: &Perturbation) -> Option<SimTime> {
    if waves.is_empty() {
        return None;
    }
    let mut total = SimTime::ZERO;
    for wave in waves {
        let shard0 = wave.shards.first()?;
        let mut spec = GraphSpec::clone(&shard0.spec);
        let ns = shard0.num_stages();

        // Reassemble the wave's duration rows in global chunk order.
        let mut pairs: Vec<(usize, Vec<SimTime>)> = Vec::new();
        for shard in &wave.shards {
            for (local, &gid) in shard.chunk_ids.iter().enumerate() {
                let row: Vec<SimTime> = (0..ns).map(|s| shard.slot(local, s).duration()).collect();
                pairs.push((gid, row));
            }
        }
        pairs.sort_unstable_by_key(|&(gid, _)| gid);
        let mut rows: Vec<Vec<SimTime>> = pairs.into_iter().map(|(_, row)| row).collect();

        let mut devices = num_devices;
        match *p {
            Perturbation::Identity => {}
            Perturbation::ScaleStage { stage, factor } => {
                for row in &mut rows {
                    row[stage] = row[stage] * factor;
                }
            }
            Perturbation::SetReuseDepth {
                producer,
                consumer,
                depth,
            } => {
                for e in &mut spec.reuse {
                    if e.producer == producer && e.consumer == consumer {
                        e.depth = depth.max(1);
                    }
                }
            }
            Perturbation::AddDevice => {
                devices = (num_devices + 1).min(crate::machine::MAX_DEVICES);
            }
            Perturbation::MergeChunks { factor } => {
                let factor = factor.max(1);
                rows = rows
                    .chunks(factor)
                    .map(|group| {
                        (0..ns)
                            .map(|s| group.iter().map(|row| row[s]).sum())
                            .collect()
                    })
                    .collect();
            }
        }
        total += Executor::new(spec, devices).run(&rows).makespan();
    }
    Some(total)
}

/// The standard what-if cases for a captured run: halve each stage's cost
/// (modeled), double each reuse edge's depth (structural), add a device
/// (structural), and merge chunk pairs (modeled). Shapes are taken from
/// the first wave's first shard; depths reflect the recorded spec.
pub fn scenarios(waves: &[WaveDag]) -> Vec<Scenario> {
    let Some(shard) = waves.first().and_then(|w| w.shards.first()) else {
        return Vec::new();
    };
    let ns = shard.num_stages();
    let mut out = Vec::new();
    for stage in 0..ns {
        // Skip stages that never run (zero cost on every chunk).
        let busy: SimTime = (0..shard.num_chunks())
            .map(|c| shard.slot(c, stage).duration())
            .sum();
        if busy.is_zero() {
            continue;
        }
        out.push(Scenario {
            label: format!("{} ×0.5", shard.stage_name(stage)),
            perturbation: Perturbation::ScaleStage { stage, factor: 0.5 },
            modeled: true,
        });
    }
    for e in &shard.spec.reuse {
        out.push(Scenario {
            label: format!(
                "reuse {}→{} depth {}→{}",
                shard.stage_name(e.producer),
                shard.stage_name(e.consumer),
                e.depth,
                e.depth * 2
            ),
            perturbation: Perturbation::SetReuseDepth {
                producer: e.producer,
                consumer: e.consumer,
                depth: e.depth * 2,
            },
            modeled: false,
        });
    }
    out.push(Scenario {
        label: "+1 device".to_string(),
        perturbation: Perturbation::AddDevice,
        modeled: false,
    });
    out.push(Scenario {
        label: "merge chunk pairs".to_string(),
        perturbation: Perturbation::MergeChunks { factor: 2 },
        modeled: true,
    });
    out
}

/// Evaluate every scenario against the identity replay and return
/// predictions sorted by speedup, best first. Scenarios whose snapshots
/// cannot be replayed are dropped.
pub fn rank(waves: &[WaveDag], num_devices: usize) -> Vec<Prediction> {
    let Some(base) = predict(waves, num_devices, &Perturbation::Identity) else {
        return Vec::new();
    };
    let mut out: Vec<Prediction> = scenarios(waves)
        .into_iter()
        .filter_map(|scenario| {
            let makespan = predict(waves, num_devices, &scenario.perturbation)?;
            let speedup = if makespan.is_zero() {
                1.0
            } else {
                base.ratio(makespan)
            };
            Some(Prediction {
                scenario,
                makespan,
                speedup,
            })
        })
        .collect();
    out.sort_by(|a, b| b.speedup.total_cmp(&a.speedup));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::pipeline_graph;
    use bk_simcore::pipeline;

    fn t(us: f64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn rows(n: usize) -> Vec<Vec<SimTime>> {
        (0..n)
            .map(|c| {
                vec![
                    t(1.0),
                    t(4.0 + (c % 3) as f64),
                    t(3.0),
                    t(6.0),
                    t(2.0),
                    t(1.5),
                ]
            })
            .collect()
    }

    fn capture_run(spec: &GraphSpec, devices: usize, n: usize) -> Vec<WaveDag> {
        let exec = Executor::new(spec.clone(), devices);
        let sharded = exec.run(&rows(n));
        let shards = sharded.shards().to_vec();
        vec![WaveDag {
            pass: 0,
            time_base: SimTime::ZERO,
            shards,
        }]
    }

    #[test]
    fn identity_replay_reproduces_the_recorded_makespan() {
        let spec = pipeline_graph(2, 1, 2, 2);
        for devices in [1, 2, 3] {
            let waves = capture_run(&spec, devices, 10);
            let recorded = Executor::new(spec.clone(), devices)
                .run(&rows(10))
                .makespan();
            let predicted = predict(&waves, devices, &Perturbation::Identity).expect("replayable");
            let err = (predicted.secs() - recorded.secs()).abs() / recorded.secs();
            assert!(err < 1e-9, "devices {devices}: err {err}");
        }
    }

    #[test]
    fn deepened_reuse_edge_prediction_matches_an_actual_rerun() {
        let shallow = pipeline_graph(2, 1, 1, 1);
        let waves = capture_run(&shallow, 1, 12);
        let predicted = predict(
            &waves,
            1,
            &Perturbation::SetReuseDepth {
                producer: 0,
                consumer: 3,
                depth: 4,
            },
        )
        .expect("replayable");
        // Actual: same durations scheduled under the deepened spec.
        let mut deeper = shallow.clone();
        for e in &mut deeper.reuse {
            if e.producer == 0 && e.consumer == 3 {
                e.depth = 4;
            }
        }
        let actual = pipeline::schedule(deeper, &rows(12)).makespan();
        let err = (predicted.secs() - actual.secs()).abs() / actual.secs();
        assert!(err < 1e-9, "err {err}");
        // And deepening a depth-1 edge should actually help here.
        let base = predict(&waves, 1, &Perturbation::Identity).unwrap();
        assert!(predicted < base);
    }

    #[test]
    fn add_device_prediction_matches_an_actual_rerun() {
        let spec = pipeline_graph(2, 1, 2, 2);
        let waves = capture_run(&spec, 1, 12);
        let predicted = predict(&waves, 1, &Perturbation::AddDevice).expect("replayable");
        let actual = Executor::new(spec, 2).run(&rows(12)).makespan();
        let err = (predicted.secs() - actual.secs()).abs() / actual.secs();
        assert!(err < 1e-9, "err {err}");
    }

    #[test]
    fn scenarios_cover_stages_edges_and_devices() {
        let waves = capture_run(&pipeline_graph(2, 1, 2, 2), 1, 6);
        let scens = scenarios(&waves);
        // 6 nonzero stages + 2 reuse edges + device + merge.
        assert_eq!(scens.len(), 10);
        assert!(scens.iter().any(|s| s.label == "+1 device" && !s.modeled));
        assert!(scens
            .iter()
            .any(|s| s.label.starts_with("reuse addr-gen→compute")));
        let ranked = rank(&waves, 1);
        assert_eq!(ranked.len(), scens.len());
        // Sorted best-first.
        for w in ranked.windows(2) {
            assert!(w[0].speedup >= w[1].speedup);
        }
    }

    #[test]
    fn merge_chunks_sums_stage_costs() {
        let spec = GraphSpec::chain(vec![(
            "compute",
            bk_simcore::ResourceId::new(bk_simcore::ResourceKind::Serial, 0),
        )]);
        let exec = Executor::new(spec, 1);
        let sharded = exec.run(&vec![vec![t(1.0)]; 4]);
        let shards = sharded.shards().to_vec();
        let waves = vec![WaveDag {
            pass: 0,
            time_base: SimTime::ZERO,
            shards,
        }];
        // Serial single stage: merging cannot change the total.
        let merged = predict(&waves, 1, &Perturbation::MergeChunks { factor: 2 }).unwrap();
        assert!((merged.secs() - t(4.0).secs()).abs() < 1e-12);
    }
}
