// Package trace provides the workload-trace substrate of the Geomancy
// reproduction: the CERN EOS access-log record format (one record per file
// interaction, open to close, described by 32 values — §V-D), CSV
// serialization, a synthetic EOS-log generator whose field↔throughput
// correlation structure reproduces Fig. 4, and the BELLE II file-set
// descriptor used by the live experiments (§IV).
//
// The real EOS logs are not redistributable; the generator documents, per
// field, the mechanism that produces its engineered correlation so the
// substitution is auditable.
package trace

// EOSRecord mirrors one entry of the CERN EOS file-access log: a single
// file interaction from open to close. Field names follow the EOS log
// schema referenced by the paper (rb, wb, ots/otms, cts/ctms, fid, fsid,
// rt, wt, nrc, nwc, sec.grps, sec.role, sec.app, ...).
type EOSRecord struct {
	RUID int64 // user id of the requester
	RGID int64 // group id of the requester
	TD   int64 // trace descriptor / thread id
	Host int64 // numeric host index of the serving FST
	LID  int64 // layout id of the file

	FID  int64 // EOS file id
	FSID int64 // file-system (storage device) id

	OTS  int64 // open timestamp, seconds
	OTMS int64 // open timestamp, millisecond part
	CTS  int64 // close timestamp, seconds
	CTMS int64 // close timestamp, millisecond part

	RB int64 // bytes read
	WB int64 // bytes written

	SFwdB   int64 // bytes seeked forward
	SBwdB   int64 // bytes seeked backward
	SXlFwdB int64 // bytes of large forward seeks
	SXlBwdB int64 // bytes of large backward seeks

	NRC     int64 // number of read calls
	NWC     int64 // number of write calls
	NFwds   int64 // number of forward seeks
	NBwds   int64 // number of backward seeks
	NXlFwds int64 // number of large forward seeks
	NXlBwds int64 // number of large backward seeks

	RT float64 // cumulative time spent in read calls, ms
	WT float64 // cumulative time spent in write calls, ms

	OSize int64 // file size at open
	CSize int64 // file size at close

	SecGrps int64 // client group (categorical, numeric-coded)
	SecRole int64 // client role (categorical, numeric-coded)
	SecApp  int64 // application identifier (categorical, numeric-coded)

	Path     string // logical file path
	Protocol int64  // access protocol (categorical, numeric-coded)
}

// NumFields is the number of values describing one EOS access (§V-D:
// "Each access is described by 32 values").
const NumFields = 32

// Throughput returns the access throughput in bytes/second using the
// paper's formula: (rb+wb) / ((cts + ctms/1000) - (ots + otms/1000)).
// It returns 0 for a non-positive duration.
func (r *EOSRecord) Throughput() float64 {
	dur := r.Duration()
	if dur <= 0 {
		return 0
	}
	return float64(r.RB+r.WB) / dur
}

// Duration returns the open-to-close wall time in seconds.
func (r *EOSRecord) Duration() float64 {
	open := float64(r.OTS) + float64(r.OTMS)/1000
	cls := float64(r.CTS) + float64(r.CTMS)/1000
	return cls - open
}

// FieldNames lists the numeric fields in the order Fields returns them.
// These are the candidate model features examined in Fig. 4.
var FieldNames = []string{
	"ruid", "rgid", "td", "host", "lid",
	"fid", "fsid",
	"ots", "otms", "cts", "ctms",
	"rb", "wb",
	"sfwdb", "sbwdb", "sxlfwdb", "sxlbwdb",
	"nrc", "nwc", "nfwds", "nbwds", "nxlfwds", "nxlbwds",
	"rt", "wt",
	"osize", "csize",
	"secgrps", "secrole", "secapp",
	"protocol",
}

// Fields returns the record's numeric fields in FieldNames order. The path
// (the one non-numeric value of the 32) is excluded.
func (r *EOSRecord) Fields() []float64 {
	return []float64{
		float64(r.RUID), float64(r.RGID), float64(r.TD), float64(r.Host), float64(r.LID),
		float64(r.FID), float64(r.FSID),
		float64(r.OTS), float64(r.OTMS), float64(r.CTS), float64(r.CTMS),
		float64(r.RB), float64(r.WB),
		float64(r.SFwdB), float64(r.SBwdB), float64(r.SXlFwdB), float64(r.SXlBwdB),
		float64(r.NRC), float64(r.NWC), float64(r.NFwds), float64(r.NBwds),
		float64(r.NXlFwds), float64(r.NXlBwds),
		r.RT, r.WT,
		float64(r.OSize), float64(r.CSize),
		float64(r.SecGrps), float64(r.SecRole), float64(r.SecApp),
		float64(r.Protocol),
	}
}

// ChosenFeatureNames are the six features the paper selected for the live
// system (§V-D): bytes read/written, open and close timestamps (seconds
// and millisecond parts are folded into fractional seconds when modeling),
// the file id, and the file-system id.
var ChosenFeatureNames = []string{"rb", "wb", "ots", "cts", "fid", "fsid"}

// ChosenFeatures extracts the paper's six selected features, with the
// timestamps as fractional seconds.
func (r *EOSRecord) ChosenFeatures() []float64 {
	return []float64{
		float64(r.RB),
		float64(r.WB),
		float64(r.OTS) + float64(r.OTMS)/1000,
		float64(r.CTS) + float64(r.CTMS)/1000,
		float64(r.FID),
		float64(r.FSID),
	}
}
