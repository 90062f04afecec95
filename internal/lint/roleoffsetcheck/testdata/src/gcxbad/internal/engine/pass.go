// Package engine seeds role IDs that cross into the buffer without the
// offset translation.
package engine

import (
	"gcxtest/internal/buffer"
	"gcxtest/internal/xqast"
)

type member struct {
	Role xqast.Role
}

type Pass struct {
	Offsets []xqast.Role
}

// rawRole hands the buffer a solo-space ID straight off the member query.
func rawRole(buf *buffer.Buffer, m *member, binding *buffer.Node) {
	buf.SignOff(binding, m.Role) // want `role ID passed to buffer SignOff without the RoleOffset translation`
}

// rawConversion counts roles by converting a bare loop index.
func rawConversion(buf *buffer.Buffer, n int) int64 {
	var total int64
	for i := 1; i <= n; i++ {
		total += buf.AssignedCount(xqast.Role(i)) // want `role ID passed to buffer AssignedCount without the RoleOffset translation`
	}
	return total
}

// clobbered shows the linear tracking: the local was translated once,
// then overwritten with a solo ID.
func clobbered(c *Pass, buf *buffer.Buffer, m *member, i int) {
	r := c.Offsets[i] + 1
	buf.AddRole(nil, r) // translated here
	r = m.Role
	buf.AddRole(nil, r) // want `role ID passed to buffer AddRole without the RoleOffset translation`
}

// missingReason uses the escape hatch without justifying it.
func missingReason(buf *buffer.Buffer, m *member) {
	//gcxlint:solorole
	buf.AddRole(nil, m.Role) // want `//gcxlint:solorole requires a reason`
}
