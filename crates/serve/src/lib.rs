//! # metadpa-serve
//!
//! The serving side of the MetaDPA reproduction: versioned model
//! checkpoints and a cold-start inference server whose distinguishing
//! feature is *serve-time MAML adaptation* — the same inner loop that
//! meta-testing uses offline ([`metadpa_core::MetaLearner::fine_tune`])
//! runs per request on a cold user's handful of support ratings.
//!
//! Three layers, each usable on its own:
//!
//! 1. [`ckpt`] — the `metadpa-ckpt/v2` on-disk format: a zero-dependency
//!    binary container for named tensors plus a JSON metadata blob,
//!    CRC-protected, with typed load errors that name the file and byte
//!    offset ([`ckpt::CkptError`]).
//! 2. [`artifact_io`] — maps [`metadpa_core::Artifact`] (what a fitted
//!    pipeline exports) onto that container, so a model round-trips
//!    through disk bit-exactly.
//! 3. [`engine`] + [`http`] + [`server`] — a thread-safe inference engine
//!    with an LRU-bounded per-user adaptation cache, a minimal HTTP/1.1
//!    server on `std::net` with a fixed worker pool and graceful shutdown,
//!    and the route table (`/v1/recommend`, `/v1/adapt`, `/v1/feedback`,
//!    `/health`, `/metrics`). The engine implements
//!    [`metadpa_feedback::FeedbackSink`], so the streaming feedback
//!    adapter can graduate cold users into the adapted cache live.
//!
//! Everything is `std`-only, matching the workspace's offline-build
//! constraint; JSON is read and written with `metadpa_obs::json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact_io;
pub mod ckpt;
pub mod engine;
pub mod http;
pub mod server;

pub use artifact_io::{load_artifact, save_artifact};
pub use ckpt::{Checkpoint, CkptError, CkptErrorKind};
pub use engine::Engine;
pub use http::{Server, ServerConfig};
pub use server::{router, router_with_feedback};
