// Package bea reproduces the position BEA's AquaLogic BPM Suite occupies
// in the paper's Figure 1: a BPEL-based workflow product whose SQL support
// comes from the *adapter technology only* — data management operations
// are masked as Web services outside the process logic, and no SQL-inline
// mechanism exists. The paper lists AquaLogic among the BPEL engines in
// Section II but excludes it from the detailed comparison precisely
// because it offers no inline support; this package makes that contrast
// executable.
//
// Processes are ordinary engine processes; the only data management
// surface is InvokeSQLAdapter, which builds an invoke activity against a
// SQL adapter service registered with RegisterSQLAdapter.
package bea

import (
	"fmt"
	"strconv"

	"wfsql/internal/engine"
	"wfsql/internal/rowset"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
)

// ProcessBuilder assembles an AquaLogic-style BPEL process. It
// deliberately offers no SQL activity types, no set references, and no
// extension functions — only variables, a body, and the adapter bridge.
type ProcessBuilder struct {
	name string
	vars []engine.VarDecl
	body engine.Activity
}

// NewProcess starts building a process.
func NewProcess(name string) *ProcessBuilder {
	return &ProcessBuilder{name: name}
}

// Variable declares a scalar process variable.
func (b *ProcessBuilder) Variable(name, init string) *ProcessBuilder {
	b.vars = append(b.vars, engine.VarDecl{Name: name, Kind: engine.ScalarVar, Init: init})
	return b
}

// XMLVariable declares an XML process variable.
func (b *ProcessBuilder) XMLVariable(name, initXML string) *ProcessBuilder {
	b.vars = append(b.vars, engine.VarDecl{Name: name, Kind: engine.XMLVar, InitXML: initXML})
	return b
}

// Body sets the process body.
func (b *ProcessBuilder) Body(a engine.Activity) *ProcessBuilder {
	b.body = a
	return b
}

// Build produces the deployable process model.
func (b *ProcessBuilder) Build() *engine.Process {
	return &engine.Process{Name: b.name, Variables: b.vars, Body: b.body}
}

// InvokeSQLAdapter builds the adapter-technology bridge: an invoke
// activity that ships a SQL statement to the named adapter service and
// stores the response parts. Query responses land as a serialized XML
// RowSet string in rowsetVar; DML responses store the affected-row count
// in rowsAffectedVar. Exactly one of the two output variables applies per
// statement kind; pass "" for the other.
//
// The statement travels as an XPath string literal, so it must not
// contain single quotes — the adapter encapsulates parameters for that
// (parts p1..pN), which ParamExprs supplies as expressions over process
// variables.
func InvokeSQLAdapter(name, service, statement string, rowsetVar, rowsAffectedVar string, paramExprs ...string) (*engine.Invoke, error) {
	for _, r := range statement {
		if r == '\'' {
			return nil, fmt.Errorf("bea: statement may not contain single quotes; use adapter parameters")
		}
	}
	inv := engine.NewInvoke(name, service).In("statement", "'"+statement+"'")
	for i, pe := range paramExprs {
		inv.In(fmt.Sprintf("p%d", i+1), pe)
	}
	if rowsetVar != "" {
		inv.Out("rowset", rowsetVar)
	}
	if rowsAffectedVar != "" {
		inv.Out("rowsAffected", rowsAffectedVar)
	}
	return inv, nil
}

// RegisterSQLAdapter registers the *adapter technology* of the paper's
// Figure 1: a service that encapsulates SQL-specific functionality and
// masks data management operations as a Web service. The process logic
// calling it sees only a service; data management issues stay outside the
// choreography.
//
// Request parts:
//
//	statement — the SQL text to execute
//	p1..pN    — optional positional parameter values (bound as strings)
//
// Response parts:
//
//	rowsAffected — for DML
//	rowset       — serialized XML RowSet, for queries
//	rows         — row count, for queries
func RegisterSQLAdapter(b *wsbus.Bus, name string, db *sqldb.DB) {
	b.Register(name, func(req wsbus.Message) (wsbus.Message, error) {
		stmt := req["statement"]
		if stmt == "" {
			return nil, fmt.Errorf("sql adapter: missing statement")
		}
		var params []sqldb.Value
		for i := 1; ; i++ {
			v, ok := req[fmt.Sprintf("p%d", i)]
			if !ok {
				break
			}
			params = append(params, sqldb.Str(v))
		}
		res, err := db.Exec(stmt, params...)
		if err != nil {
			return nil, err
		}
		if !res.IsQuery() {
			return wsbus.Message{"rowsAffected": strconv.Itoa(res.RowsAffected)}, nil
		}
		rs, err := rowset.FromResult(res)
		if err != nil {
			return nil, err
		}
		return wsbus.Message{
			"rowset": rs.String(),
			"rows":   strconv.Itoa(len(res.Rows)),
		}, nil
	})
}
