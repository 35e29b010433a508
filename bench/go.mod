module gthinkerqc/bench

go 1.21

require gthinkerqc v0.0.0

replace gthinkerqc => ../
