//! # dynfd-datagen
//!
//! Deterministic synthetic datasets and change histories shaped like the
//! six real-world datasets of the DynFD evaluation (Table 3).
//!
//! The originals (MusicBrainz `artist`, Wikipedia infobox `cpu` /
//! `disease` / `actor` / `single`, TSA `claims`) are change-history dumps
//! we cannot redistribute; DESIGN.md documents the substitution. What
//! drives DynFD's cost — and therefore what the generator reproduces per
//! dataset — is:
//!
//! * **width** (column count → lattice size),
//! * **length** (row count → PLI/cluster size),
//! * **change mix** (insert/delete/update shares → which cover is
//!   exercised),
//! * **FD structure and churn** (hierarchy columns à la zip→city,
//!   near-keys, and noisily correlated columns whose dependencies
//!   appear and disappear under changes).
//!
//! Everything is seeded ChaCha8, so a given profile always regenerates
//! the identical dataset and change stream, bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod changes;
mod generator;
mod profiles;
mod zipf;

pub use changes::GeneratedDataset;
pub use generator::{ColumnModel, TableSpec};
pub use profiles::{DatasetProfile, PAPER_PROFILES};
pub use zipf::Zipf;
