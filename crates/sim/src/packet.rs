//! Frames and payloads exchanged through the simulated network.
//!
//! The simulator is deliberately agnostic about what protocols put inside
//! frames: a [`Payload`] is an `Arc<dyn Any>` that the receiving protocol
//! downcasts back to its concrete message type. Radio airtime and overhead
//! accounting use the explicit `wire_bytes` field, which protocols must set
//! to the frame's true serialized size (header + payload as it would appear
//! on air).

use crate::time::SimTime;
use crate::topology::NodeId;
use std::any::Any;
use std::sync::Arc;

/// Opaque protocol payload.
pub type Payload = Arc<dyn Any + Send + Sync>;

/// Protocol-defined timer identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub u32);

/// Handle identifying an asynchronous unicast send; echoed in [`SendDone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SendToken(pub u64);

/// A frame as delivered to a receiving protocol.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Transmitter of this frame.
    pub src: NodeId,
    /// The node this copy was delivered to. For unicast this is the
    /// addressed destination; for broadcast it is one of the receivers.
    pub dst: NodeId,
    /// True for link-layer broadcast (no ACK, single attempt).
    pub is_broadcast: bool,
    /// Attempt number (1-based) of the transmission that produced this
    /// copy. When an ACK is lost the sender retries and the receiver sees
    /// *duplicate* copies with increasing attempt numbers — receivers must
    /// deduplicate and keep the first copy, whose attempt number is exactly
    /// the number of transmissions until first success (the geometric loss
    /// sample Dophy's estimator consumes).
    pub attempt: u16,
    /// Full frame size on air, in bytes (set by the sender).
    pub wire_bytes: usize,
    /// Simulated reception time.
    pub rx_time: SimTime,
    /// Causal lifecycle trace id carried by this frame, when the sender
    /// tagged its send (see [`crate::obs::Event::trace_id`]).
    /// Deterministic — derived from protocol state, never from RNG — and
    /// read by the engine only to stamp its tx, rx and drop events, so
    /// tracing cannot perturb a run.
    pub trace_id: Option<u64>,
    /// Protocol payload.
    pub payload: Payload,
}

impl Frame {
    /// Downcasts the payload to a concrete message type.
    pub fn payload_as<T: 'static>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

/// Completion report for a send (or a refused unicast). A broadcast
/// completes with token `SendToken(u64::MAX)`, `dst` = the sender,
/// `acked: true` and one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendDone {
    /// Token returned by the send call.
    pub token: SendToken,
    /// Addressed destination.
    pub dst: NodeId,
    /// True if an ACK was received.
    pub acked: bool,
    /// Physical transmissions made. Zero means the frame was dropped from
    /// the MAC queue without any attempt (queue overflow or no such link).
    pub attempts: u16,
}

impl SendDone {
    /// True if the frame never went on air.
    pub fn was_dropped(&self) -> bool {
        self.attempts == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Msg {
        x: u32,
    }

    #[test]
    fn payload_downcast() {
        let f = Frame {
            src: NodeId(1),
            dst: NodeId(2),
            is_broadcast: false,
            attempt: 1,
            wire_bytes: 40,
            rx_time: SimTime::ZERO,
            trace_id: None,
            payload: Arc::new(Msg { x: 7 }),
        };
        assert_eq!(f.payload_as::<Msg>(), Some(&Msg { x: 7 }));
        assert!(f.payload_as::<String>().is_none());
    }

    #[test]
    fn send_done_drop_flag() {
        let ok = SendDone {
            token: SendToken(1),
            dst: NodeId(2),
            acked: true,
            attempts: 3,
        };
        assert!(!ok.was_dropped());
        let dropped = SendDone {
            token: SendToken(2),
            dst: NodeId(2),
            acked: false,
            attempts: 0,
        };
        assert!(dropped.was_dropped());
    }
}
