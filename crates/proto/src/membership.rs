//! Dynamic membership: the control-plane mirror that scripts it.
//!
//! Joins, leaves and reshapes (§3.2.2–§3.2.3) are timed [`MemberChange`]
//! entries of [`crate::FailureSpec::membership`], applied by the one run
//! loop, [`crate::MultiSession::run`]. [`MembershipMirror`] writes them
//! from an `smrp-core` [`SmrpSession`], so each join takes the real SMRP
//! path selection and each reshape the real Condition I/II decision; the
//! wire behaviour is the routers' own.

use smrp_core::session::ReshapeOutcome;
use smrp_core::{MulticastTree, SmrpConfig, SmrpError, SmrpSession};
use smrp_net::{Graph, GroupId, NodeId};
use smrp_sim::SimTime;

use crate::multi::MemberChange;

/// One group's control-plane mirror, turning membership operations at
/// given instants into a run's membership list.
#[derive(Debug)]
pub struct MembershipMirror<'g> {
    control: SmrpSession<'g>,
    group: GroupId,
    script: Vec<(SimTime, GroupId, NodeId, MemberChange)>,
}

impl<'g> MembershipMirror<'g> {
    /// Mirrors `group`, rooted at `source`, starting with no members.
    ///
    /// # Errors
    ///
    /// Fails on an unknown source or invalid configuration.
    pub fn new(
        graph: &'g Graph,
        source: NodeId,
        config: SmrpConfig,
        group: GroupId,
    ) -> Result<Self, SmrpError> {
        Ok(MembershipMirror {
            control: SmrpSession::new(graph, source, config)?,
            group,
            script: Vec::new(),
        })
    }

    /// The mirror's current tree (it prunes at once; the wire prunes on
    /// holdtime).
    pub fn tree(&self) -> &MulticastTree {
        self.control.tree()
    }

    /// The membership list written so far, in call order.
    pub fn script(&self) -> &[(SimTime, GroupId, NodeId, MemberChange)] {
        &self.script
    }

    /// Joins `member` at `at`. A relay is promoted in place; otherwise the
    /// member source-routes a `Setup` along its new branch, from itself to
    /// the merger the mirror chose. Members the join reshaped (Condition I
    /// under [`SmrpConfig::auto_reshape`]) re-route as [`reshape`](Self::reshape)
    /// does.
    ///
    /// # Errors
    ///
    /// Propagates control-plane selection errors.
    pub fn join(&mut self, at: SimTime, member: NodeId) -> Result<(), SmrpError> {
        let out = self.control.join(member)?;
        let nodes = out.path.nodes();
        let merger = nodes.iter().position(|&n| n == out.merger);
        let change = match &nodes[merger.expect("the path crosses its merger")..] {
            [_] => MemberChange::Promote,
            branch => MemberChange::Setup(branch.iter().rev().copied().collect()),
        };
        self.script.push((at, self.group, member, change));
        for m in out.reshaped {
            self.reroute(at, m);
        }
        Ok(())
    }

    /// Leaves `member` at `at`; the wire prunes through soft-state expiry.
    ///
    /// # Errors
    ///
    /// Propagates control-plane membership errors.
    pub fn leave(&mut self, at: SimTime, member: NodeId) -> Result<(), SmrpError> {
        self.control.leave(member)?;
        self.script
            .push((at, self.group, member, MemberChange::Leave));
        Ok(())
    }

    /// Attempts the §3.2.3 reshaping for `member` at `at`. On a switch the
    /// member issues a `Setup` along its new source path (reorienting every
    /// hop), and the abandoned branch decays through soft-state expiry.
    /// Returns whether a switch happened.
    ///
    /// # Errors
    ///
    /// Propagates control-plane errors.
    pub fn reshape(&mut self, at: SimTime, member: NodeId) -> Result<bool, SmrpError> {
        let switched = matches!(
            self.control.reshape_member(member)?,
            ReshapeOutcome::Switched { .. }
        );
        if switched {
            self.reroute(at, member);
        }
        Ok(switched)
    }

    /// One Condition II sweep over all members at `at`. Returns the number
    /// of switches.
    ///
    /// # Errors
    ///
    /// Propagates control-plane errors.
    pub fn reshape_sweep(&mut self, at: SimTime) -> Result<usize, SmrpError> {
        let members: Vec<NodeId> = self.control.members().collect();
        let mut switched = 0;
        for m in members {
            switched += usize::from(self.reshape(at, m)?);
        }
        Ok(switched)
    }

    fn reroute(&mut self, at: SimTime, member: NodeId) {
        let path = self
            .control
            .tree()
            .path_from_source(member)
            .expect("member stays on the tree")
            .reversed();
        let change = MemberChange::Setup(path.nodes().to_vec());
        self.script.push((at, self.group, member, change));
    }
}
