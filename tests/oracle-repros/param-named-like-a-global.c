/* A monitor whose assume(core(...)) names its parameter `ctrl`, while an
   unrelated global is also called `ctrl`. The parameter holds the shared
   region, so the annotation monitors every read through it, including
   the helper's: neither engine may report anything. */
typedef struct SHMData { float control; int seq; } SHMData;
SHMData *shm;
int *ctrl;
void *shmat(int shmid, void *addr, int flags);
void sink(float v);

void initShm(void)
/** SafeFlow Annotation shminit */
{
    shm = (SHMData *) shmat(0, 0, 0);
    /** SafeFlow Annotation
        assume(shmvar(shm, sizeof(SHMData)))
        assume(noncore(shm))
    */
}

float peek(SHMData *p) {
    return p->control;
}

float readCtrl(SHMData *ctrl)
/** SafeFlow Annotation assume(core(ctrl, 0, sizeof(SHMData))) */
{
    float v;
    v = peek(ctrl);
    if (v > 5.0) return 5.0;
    return v;
}

int main() {
    float u;
    initShm();
    u = readCtrl(shm);
    /** SafeFlow Annotation assert(safe(u)) */
    sink(u);
    return 0;
}
