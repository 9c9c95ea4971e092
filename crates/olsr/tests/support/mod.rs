//! Test-only oracles shared by the crate's integration suites.
#![allow(dead_code)]

pub mod topology_base;
