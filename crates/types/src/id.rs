//! Node identities.

use core::fmt;

/// The authenticated identity of a node.
///
/// The paper assumes "the message passing medium allows for an authenticated
/// identity of the senders" (§2); in this workspace the network substrate
/// stamps every delivery with the true [`NodeId`] of the sender, so a
/// Byzantine node can lie about content but never about identity.
///
/// # Example
///
/// ```
/// use ssbyz_types::NodeId;
///
/// let nodes: Vec<NodeId> = NodeId::all(4).collect();
/// assert_eq!(nodes.len(), 4);
/// assert_eq!(nodes[2].index(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its index in the (fixed, globally known)
    /// membership list.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The node's index in the membership list.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Iterates over the ids `0..n`.
    pub fn all(n: usize) -> impl Iterator<Item = NodeId> + Clone {
        (0..u32::try_from(n).expect("membership too large")).map(NodeId)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        let id = NodeId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.as_u32(), 7);
        assert_eq!(NodeId::from(7u32), id);
        assert_eq!(format!("{id}"), "n7");
    }

    #[test]
    fn all_enumerates() {
        let ids: Vec<_> = NodeId::all(3).collect();
        assert_eq!(ids, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }
}
