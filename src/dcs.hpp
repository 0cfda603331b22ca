// Umbrella header for the dcsketch library.
//
// Pulls in the public API surface:
//   * sketches      — DistinctCountSketch, TrackingDcs, SlidingWindowSketch
//   * detection     — DdosMonitor, EpochChangeDetector
//   * distribution  — EpochSketch and SketchBlob, the edge form a site
//                     agent seals and the shipped form a collector merges
//                     (src/service runs the agents and collectors)
//   * stream model  — FlowUpdate, ZipfWorkload, trace I/O
//   * network sim   — Topology, Simulator, host agents, scenarios, exporter
//   * baselines     — exact tracker and the comparison algorithms
//
// Include individual headers instead when compile time matters; every header
// is self-contained.
#pragma once

#include "baselines/exact_tracker.hpp"
#include "detection/alert_log.hpp"
#include "detection/ddos_monitor.hpp"
#include "detection/epoch_change.hpp"
#include "metrics/accuracy.hpp"
#include "net/exporter.hpp"
#include "obs/export.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "net/scenarios.hpp"
#include "sim/agents.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sketch/distinct_count_sketch.hpp"
#include "sketch/epoch_sketch.hpp"
#include "sketch/sketch_blob.hpp"
#include "sketch/sliding_window.hpp"
#include "sketch/tracking_dcs.hpp"
#include "stream/generator.hpp"
#include "stream/trace_io.hpp"
