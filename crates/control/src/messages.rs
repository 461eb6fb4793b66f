//! Controller-to-site commands.
//!
//! The testbed controller speaks serial, HTTPS and NetConf to its
//! devices; a production Iris would use one compact binary protocol.
//! [`Command`] is that protocol's message type. It speaks the
//! workspace's one wire discipline: the [`iris_wire::bin::Wire`] layout
//! declared below (or JSON) inside ordinary length-prefixed
//! [`iris_wire::frame`] frames, so commands stream over any reliable
//! byte transport and parse incrementally like every other Iris message.

use iris_wire::wire_enum;
use serde::{Deserialize, Serialize};

/// A control-plane command.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Command {
    /// Connect an OSS input port to an output port.
    SetCross {
        /// Target switch id.
        switch: u32,
        /// Input port.
        input: u32,
        /// Output port.
        output: u32,
    },
    /// Tune a transceiver to a channel.
    Tune {
        /// Target transceiver id.
        transceiver: u32,
        /// DWDM channel index.
        channel: u32,
    },
    /// Mark a channel live / filled on a channel emulator.
    SetEmulation {
        /// Target emulator id.
        emulator: u32,
        /// Channel index.
        channel: u32,
        /// Live (true) or ASE-filled (false).
        live: bool,
    },
    /// Drain traffic off a DC pair before reconfiguration.
    Drain {
        /// DC indices.
        a: u32,
        /// DC indices.
        b: u32,
    },
    /// Restore traffic onto a DC pair after reconfiguration.
    Undrain {
        /// DC indices.
        a: u32,
        /// DC indices.
        b: u32,
    },
    /// Ask a site to verify device state and report health.
    HealthCheck {
        /// Site id.
        site: u32,
    },
}

wire_enum!(Command: "command" {
    1 => SetCross { switch: u32, input: u32, output: u32 },
    2 => Tune { transceiver: u32, channel: u32 },
    3 => SetEmulation { emulator: u32, channel: u32, live: bool },
    4 => Drain { a: u32, b: u32 },
    5 => Undrain { a: u32, b: u32 },
    6 => HealthCheck { site: u32 },
});

#[cfg(test)]
mod tests {
    //! Every variant's round trip in frames and under hostile bytes is
    //! checked in `iris-wire`'s `tests/hostile_bytes.rs` and the root
    //! `command_codec_round_trips` property.

    use super::*;
    use iris_wire::Codec;

    #[test]
    fn opcodes_are_stable_and_unknown_ones_are_rejected() {
        let mut buf = Vec::new();
        Codec::Binary
            .encode_into(&Command::HealthCheck { site: 9 }, &mut buf)
            .unwrap();
        assert_eq!(buf, [6, 9, 0, 0, 0]);
        let err = Codec::Binary
            .decode::<Command>(&[99, 0, 0, 0, 0], "command")
            .unwrap_err();
        assert_eq!(err.code(), "decode");
    }
}
