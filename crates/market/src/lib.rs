//! Multi-region electricity market substrate for the `idc-mpc` workspace.
//!
//! The ICDCS 2012 paper prices IDC energy with Locational Marginal Pricing
//! (LMP) in deregulated North-American markets (paper Sec. III-C):
//! real-time prices vary by *region*, *hour of day* and *load*. This crate
//! provides:
//!
//! * [`region::Region`] — named market regions,
//! * [`trace::PriceTrace`] — hourly real-time price traces, including the
//!   pinned [`trace::miso_oct3_2011`] traces for Michigan / Minnesota /
//!   Wisconsin whose hour-6 and hour-7 values equal the paper's Table III
//!   exactly (the rest of the day is synthesized to match Fig. 2's shape —
//!   the real MISO archive is not available offline),
//! * [`rtp`] — the [`rtp::PricingModel`] abstraction `Pr = f(region, time,
//!   load)` (paper eq. 9), including demand-responsive pricing used for the
//!   "vicious cycle" experiments of the introduction,
//! * [`tariff`] — power budgets and peak-demand penalties (the constraint
//!   that motivates peak shaving),
//! * [`fault`] — price traces with injected feed faults.
//!
//! # Example
//!
//! ```
//! use idc_market::trace::miso_oct3_2011;
//!
//! let traces = miso_oct3_2011();
//! // Table III, 6H row.
//! assert_eq!(traces[0].price_at_hour(6.0), 43.26); // Michigan
//! assert_eq!(traces[1].price_at_hour(6.0), 30.26); // Minnesota
//! assert_eq!(traces[2].price_at_hour(6.0), 19.06); // Wisconsin
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod region;
pub mod rtp;
pub mod tariff;
pub mod trace;
