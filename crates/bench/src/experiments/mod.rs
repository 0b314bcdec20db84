//! The experiment registry: one entry per table/figure of the paper plus
//! the extension experiments (README "Extension experiments" maps each
//! id to the claim it measures).

pub mod availability;
pub mod bandwidth;
pub mod common;
pub mod discovery;
pub mod ext;
pub mod overhead;
pub mod table1;

pub use common::{ExpContext, Model};

use crate::output::ResultTable;

/// All experiment identifiers, in run order.
pub const ALL_IDS: &[&str] = &[
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "ext-dht",
    "ext-ed",
    "ext-join",
    "ext-collusion",
    "ext-ps-size",
    "ext-broadcast",
];

/// Runs one experiment by id.
///
/// # Errors
///
/// Returns an error string for unknown ids.
pub fn run(id: &str, ctx: &ExpContext) -> Result<Vec<ResultTable>, String> {
    let tables = match id {
        "table1" => table1::table1(ctx),
        "fig3" => discovery::fig3(ctx),
        "fig4" => discovery::fig4_5(ctx, Model::Stat, "fig4"),
        "fig5" => discovery::fig4_5(ctx, Model::SynthBd, "fig5"),
        "fig6" => discovery::fig6(ctx),
        "fig7" => overhead::fig7(ctx),
        "fig8" => overhead::fig8(ctx),
        "fig9" => overhead::fig9(ctx),
        "fig10" => overhead::fig10(ctx),
        "fig11" => discovery::fig11(ctx),
        "fig12" => overhead::fig12(ctx),
        "fig13" => discovery::fig13(ctx),
        "fig14" => overhead::fig14(ctx),
        "fig15" => discovery::fig15(ctx),
        "fig16" => overhead::fig16(ctx),
        "fig17" => availability::fig17(ctx),
        "fig18" => availability::fig18(ctx),
        "fig19" => bandwidth::fig19(ctx),
        "fig20" => availability::fig20(ctx),
        "ext-dht" => ext::ext_dht(ctx),
        "ext-ed" => ext::ext_ed(ctx),
        "ext-join" => ext::ext_join(ctx),
        "ext-collusion" => ext::ext_collusion(ctx),
        "ext-ps-size" => ext::ext_ps_size(ctx),
        "ext-broadcast" => ext::ext_broadcast(ctx),
        other => return Err(format!("unknown experiment id {other:?}")),
    };
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_id() {
        let ctx = ExpContext {
            quick: true,
            ..ExpContext::default()
        };
        // Don't run them here (slow); just verify id dispatch exists by
        // checking the error path only triggers for unknown ids.
        assert!(run("fig99", &ctx).is_err());
        assert!(ALL_IDS.contains(&"fig20"));
        assert_eq!(ALL_IDS.len(), 25);
    }
}
