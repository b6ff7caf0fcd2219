//! Workspace-level façade for the SplitBeam reproduction.
//!
//! The implementation lives in the workspace crates; this crate only re-exports
//! them under one roof so the examples (`examples/`) and the cross-crate
//! integration tests (`tests/`) have a single dependency, and so downstream
//! users can depend on `splitbeam-repro` and get the whole stack.
//!
//! ```
//! use splitbeam_repro::prelude::*;
//! let mimo = MimoConfig::symmetric(2, Bandwidth::Mhz20);
//! let config = SplitBeamConfig::new(mimo, CompressionLevel::OneEighth);
//! assert_eq!(config.bottleneck_dim(), 56);
//! ```

pub use dot11_bfi;
pub use mimo_math;
pub use neural;
pub use splitbeam;
pub use splitbeam_baselines as baselines;
pub use splitbeam_datasets as datasets;
pub use splitbeam_hwsim as hwsim;
pub use splitbeam_serve as serve;
pub use wifi_phy;

/// The most commonly used types, re-exported for examples and quick scripts.
pub mod prelude {
    pub use dot11_bfi::pipeline::{Dot11Beamformee, Dot11Beamformer};
    pub use dot11_bfi::quantize::AngleResolution;
    pub use splitbeam::config::{CompressionLevel, SplitBeamConfig};
    pub use splitbeam::model::SplitBeamModel;
    pub use splitbeam::training::{train_model, TrainingData, TrainingOptions};
    pub use splitbeam_baselines::lbscifi::{LbSciFiConfig, LbSciFiModel};
    pub use splitbeam_datasets::catalog::{dataset_catalog, dataset_for};
    pub use splitbeam_datasets::generator::{generate_dataset, GeneratorOptions};
    pub use splitbeam_hwsim::accelerator::AcceleratorModel;
    pub use splitbeam_hwsim::delay::DelayBudget;
    pub use splitbeam_hwsim::event::{SeededJitter, SharedMedium};
    pub use splitbeam_serve::driver::{
        build_server, generate_traffic, link_check, serve_traffic, ChurnConfig, RoundServing,
        ServeMode, SimConfig,
    };
    pub use splitbeam_serve::event::{build_event_driver, EventConfig, EventDriver};
    pub use splitbeam_serve::server::ApServer;
    pub use splitbeam_serve::timing::{DeadlinePolicy, FrameClass, FrameStamp};
    pub use wifi_phy::channel::{ChannelModel, ChannelSnapshot, EnvironmentProfile};
    pub use wifi_phy::link::{simulate_mu_mimo_ber, LinkConfig};
    pub use wifi_phy::ofdm::{Bandwidth, MimoConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_core_types() {
        let mimo = MimoConfig::symmetric(3, Bandwidth::Mhz40);
        let config = SplitBeamConfig::new(mimo, CompressionLevel::OneQuarter);
        assert_eq!(config.input_dim(), 2 * 9 * 114);
        assert_eq!(dataset_catalog().len(), 15);
    }
}
