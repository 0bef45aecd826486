//! Quickstart: build a tiny reference trace by hand, schedule it three
//! ways, and compare the total communication cost.
//!
//! ```text
//! cargo run --release -p pim-cli --example quickstart
//! ```

use pim_array::grid::Grid;
use pim_sched::{Method, Run};
use pim_trace::builder::TraceBuilder;
use pim_trace::ids::DataId;

fn main() {
    // A 4×4 PIM array — the machine of the paper's experiments.
    let grid = Grid::new(4, 4);

    // One datum, referenced first by the top-left corner, then (heavily)
    // by the bottom-right corner.
    let mut b = TraceBuilder::new(grid, 1);
    b.step().access_n(grid.proc_xy(0, 0), DataId(0), 2);
    b.step().access_n(grid.proc_xy(3, 3), DataId(0), 5);
    b.step().access_n(grid.proc_xy(3, 3), DataId(0), 5);
    let trace = b.finish().window_fixed(1); // one step per execution window

    println!("one datum, three windows: refs 2@(0,0), then 5@(3,3) twice\n");
    for method in [Method::Scds, Method::Lomcds, Method::Gomcds] {
        let s = Run::new(&trace).run_method(method).unwrap();
        let centers: Vec<String> = (0..trace.num_windows())
            .map(|w| {
                let p = grid.point_of(s.center(DataId(0), w));
                format!("({},{})", p.x, p.y)
            })
            .collect();
        let cost = s.evaluate(&trace);
        println!(
            "{:<8} centers {:<22} cost {} (ref {}, move {})",
            method.name(),
            centers.join(" "),
            cost.total(),
            cost.reference,
            cost.movement
        );
    }

    println!(
        "\nSCDS parks the datum at the weighted median; GOMCDS pays one move\n\
         up front to sit on the hot corner for the heavy windows."
    );
}
