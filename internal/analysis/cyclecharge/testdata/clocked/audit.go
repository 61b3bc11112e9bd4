package clocked

// AuditPortScan walks memory through the fabric port from an audit
// file: scheduled by the arbiter and charged to the clock, so flagged.
func (e *Engine) AuditPortScan() (uint64, error) {
	return e.port.Read(0) // want `Read issues clock-charged membus\.Port traffic from audit file audit.go`
}

// AuditComposite calls higher-level operations; only direct port
// traffic is flagged, so this is the false-positive guard (recovery
// engines like Rebuild legitimately pay functional cost through
// package APIs).
func (e *Engine) AuditComposite() {
	e.GoodDocumented()
	e.GoodNamedConstant()
}
