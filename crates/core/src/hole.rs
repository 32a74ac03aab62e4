//! The hole registry, re-exported from `verc3-mck`, which owns lazy hole
//! discovery: the checker looks up, tracks and registers every hole its
//! rules consult (see [`verc3_mck::HoleRegistry`]). Each synthesis
//! generation opens its workers' check sessions over one registry that
//! starts with the generation's frontier.

pub use verc3_mck::{HoleId, HoleInfo, HoleRegistry};
