//! Steganography mode — "if the random vector is loaded with multimedia
//! cover data, the micro-architecture is used for hiding as well as
//! scrambling data" (paper §VI), with no change to the datapath.
//!
//! Hides a message inside a synthetic 16-bit-sample "audio" cover and
//! shows the distortion is confined to the low byte of each sample.
//!
//! Run with: `cargo run --example steganography`

use mhhea::{CoverSource, DecryptSession, EncryptSession, Key};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let key = Key::from_nibbles(&[(0, 2), (3, 5), (1, 4), (6, 7)])?;
    let secret = b"meet at the usual place";

    // A synthetic cover: a slow sine-ish ramp of 16-bit samples.
    let cover: Vec<u16> = (0..4096u32)
        .map(|i| (((i * 13) % 251) as u16) << 7 | ((i % 111) as u16))
        .collect();

    // Stego-encrypt: the cover words *are* the hiding vectors.
    let mut embedder = EncryptSession::new(key.clone(), CoverSource::new(cover.clone()));
    let stego: Vec<u16> = embedder.encrypt(secret)?;
    println!(
        "embedded {} bytes into {} of {} cover samples",
        secret.len(),
        stego.len(),
        cover.len()
    );

    // Distortion analysis: only low-byte bits inside the scrambled spans
    // may differ.
    let mut changed_bits = 0usize;
    for (orig, st) in cover.iter().zip(&stego) {
        let diff = orig ^ st;
        assert_eq!(diff & 0xFF00, 0, "high byte must never change");
        changed_bits += diff.count_ones() as usize;
    }
    println!(
        "distortion: {changed_bits} bits changed over {} samples ({:.2} bits/sample, high bytes intact)",
        stego.len(),
        changed_bits as f64 / stego.len() as f64
    );

    // Extraction needs only the key and the stego samples.
    let mut extractor = DecryptSession::new(key);
    let recovered = extractor.decrypt(&stego, secret.len() * 8)?;
    assert_eq!(recovered, secret);
    println!("extracted: {:?}", String::from_utf8_lossy(&recovered));

    // The stego stream is the *prefix* of the cover with embedded spans;
    // a warden comparing lengths sees nothing unusual.
    println!(
        "embedding rate: {:.3} message bits per cover bit",
        (secret.len() * 8) as f64 / (stego.len() * 16) as f64
    );
    Ok(())
}
