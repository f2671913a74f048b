//! Message/event tracing — used by the Figure-1/2/3 experiments to verify
//! structural claims ("communication occurs only within rows", code
//! processor counts, recovery message flows).

/// One traced machine event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A point-to-point message.
    Send {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Application tag.
        tag: u64,
        /// Payload size in words.
        words: u64,
    },
    /// A rank died at a fault point (hard fault) and was replaced.
    Death {
        /// The rank slot that failed.
        rank: usize,
        /// Label of the fault point where it died.
        label: String,
        /// New incarnation number of the replacement.
        incarnation: u32,
    },
}

impl TraceEvent {
    /// Source/destination pair for send events.
    #[must_use]
    pub fn endpoints(&self) -> Option<(usize, usize)> {
        match self {
            TraceEvent::Send { src, dst, .. } => Some((*src, *dst)),
            TraceEvent::Death { .. } => None,
        }
    }
}
