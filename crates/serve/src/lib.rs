//! # fl-serve — the resumable, sharded campaign service
//!
//! `faultlab serve` turns the campaign engine into a long-lived local
//! daemon: clients submit a [`CampaignSpec`](fl_inject::CampaignSpec)
//! as JSON over a TCP socket (a deliberately minimal HTTP/1.1 dialect,
//! no external dependencies), the server runs the trials on the
//! engine's worker pool, and per-trial records stream
//! incrementally to an append-only JSONL file that doubles as the
//! campaign's durable state.
//!
//! The resume invariant is the whole point: every trial is
//! deterministic in `(spec, ci, k)`, records are flushed line-by-line,
//! and torn tails are tolerated by the parser — so a server killed at
//! *any* instant and restarted on the same state directory finishes the
//! campaign with a canonical record stream and metrics that are
//! **bit-identical** to an uninterrupted run's. The tests enforce this.
//!
//! * [`server`] — the daemon: socket loop, campaign registry, state
//!   directory, pause/resume/stop, auto-resume on startup.
//! * [`http`] — the hand-rolled HTTP/1.1 reader/writer it speaks.
//! * [`client`] — blocking helpers the CLI verbs (`submit`, `status`,
//!   `watch`, …) and CI smoke tests are built from.

pub mod client;
pub mod http;
pub mod server;

pub use client::{
    control, records, request, status, status_field, submit, wait_done, wait_terminal, watch,
};
pub use server::{campaign_id, ServeConfig, Server, HANDLERS};
