//! Fig. 10: the in-memory XNOR primitive — truth table, discharge/retain
//! behaviour, and a textual rendition of the silicon prototype's
//! oscilloscope capture (precharge / compute / precharge phases).
//!
//! The paper validates the primitive with a TSMC-65nm test structure
//! (Fig. 10d/e); this harness validates the same contract on the
//! functional model: the RBL discharges exactly when `S XNOR J = 1`.

use sachi_bench::{section, Table};
use sachi_mem::prelude::*;

fn waveform(discharges: bool) -> [&'static str; 3] {
    if discharges {
        [
            "1V --------\\",
            "            \\____ 0V   (RBL discharged: XNOR = 1)",
            "re-precharge /---- 1V",
        ]
    } else {
        [
            "1V ----------",
            "  ---------- 1V   (RBL retained: XNOR = 0)",
            "  ---------- 1V",
        ]
    }
}

fn main() {
    section("Fig. 10a-c - XNOR truth table on the 8T pair");
    let mut table = Table::new(["stored S", "driven J", "S XNOR J", "RBL"]);
    for (s, j) in [(true, true), (true, false), (false, true), (false, false)] {
        let mut tile = SramTile::new(1, 1);
        tile.write_bit(0, 0, s).expect("in bounds");
        let out = tile.compute_xnor(0, j, 0..1).expect("in bounds");
        let discharged = tile.stats().rbl_discharges == 1;
        assert_eq!(out[0], s == j, "XNOR contract violated");
        assert_eq!(discharged, s == j, "discharge must signal XNOR = 1");
        table.row([
            (s as u8).to_string(),
            (j as u8).to_string(),
            (out[0] as u8).to_string(),
            if discharged {
                "discharges"
            } else {
                "retains 1V"
            }
            .to_string(),
        ]);
    }
    table.print();

    section("Fig. 10e - the prototype capture, reenacted (S = 1, J = 1)");
    println!("phase 1 (precharge): RBL at 1V");
    println!("phase 2 (compute):   RWL pulse with J = 1");
    for line in waveform(true) {
        println!("   {line}");
    }
    println!("phase 3 (precharge): RBL restored for the next access");

    section("energy per event (paper's extracted constants)");
    let t = TechnologyParams::freepdk45();
    println!("RWL pulse : {} (50 fF at 1V)", t.rwl_energy_per_bit());
    println!("RBL swing : {} (35 fF at 1V)", t.rbl_energy_per_bit());
    println!(
        "array latency {} within the {} cycle",
        t.sram_array_latency, t.cycle_time
    );

    section("100x100 prototype-sized array, full-column check");
    let mut tile = SramTile::new(100, 100);
    for row in 0..100 {
        for col in 0..100 {
            tile.write_bit(row, col, (row + col) % 2 == 0)
                .expect("in bounds");
        }
    }
    let mut discharges = 0u64;
    for row in 0..100 {
        let out = tile.compute_xnor(row, true, 0..100).expect("in bounds");
        discharges += out.iter().filter(|&&b| b).count() as u64;
    }
    println!("10,000 bitcells driven with J = 1: {discharges} discharges (expected 5,000 on the checkerboard)");
    assert_eq!(discharges, 5_000);
    assert_eq!(tile.stats().rbl_discharges, 5_000);
}
