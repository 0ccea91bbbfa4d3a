//! Regenerates Figure 3: message alignment by circulate-left(KeyL) and
//! circulate-right(KeyR+1), using the paper's KeyL=2 / KeyR=5 example.
//!
//! Usage: `cargo run --release -p mhhea-bench --bin alignment_demo`

use bitkit::word;

fn show(label: &str, v: u16) {
    println!("{label:<42} {v:016b} (0x{v:04x})");
}

fn main() {
    println!("== Figure 3: message alignment (KeyL=2, KeyR=5) ==\n");
    let message = 0x48D0u16;
    show("(a) no alignment", message);
    let left = word::rotl16(message, 2);
    show("(b) circulate left by KeyL = 2", left);
    println!(
        "    -> message bits m0..m3 now sit at positions 2..5,\n       aligned with the hiding-vector span C2..C5"
    );
    let right = word::rotr16(left, 6);
    show("(c) circulate right by KeyR+1 = 6", right);
    println!("    -> consumed bits rotated away; the next message bit is back at LSB\n");

    println!("worked example of Figure 8 on the same datapath:");
    println!(
        "  message 0x48D0 rotl 2  = 0x{:04x} (paper: 2341)",
        0x48D0u16.rotate_left(2)
    );
    println!(
        "  0x2341 rotr 6          = 0x{:04x} (paper: 048D)",
        0x2341u16.rotate_right(6)
    );

    println!("\nall 64 (KeyL, KeyR) alignments for 0x8001:");
    for l in 0..8u32 {
        for r in 0..8u32 {
            let (lo, hi) = (l.min(r), l.max(r));
            let aligned = 0x8001u16.rotate_left(lo);
            let restored = aligned.rotate_right(hi + 1);
            print!("{lo}{hi}:{aligned:04x}->{restored:04x} ");
        }
        println!();
    }
}
